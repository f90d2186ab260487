"""The non-local layer's one-node op against the chain of single ops it
replaced: same output and gradients bit for bit, and only its output and
the affinity kept on the tape."""

import tracemalloc

import numpy as np
import pytest

from chain_ops import add, matmul, mul
from semgcn import autodiff
from semgcn.autodiff import Tape, Tensor, batch_norm
from semgcn.layers import BatchNormNodes, NonLocalBlock
from semgcn.skeleton import DEFAULT_NODE_GROUPS

K = 16


# The three single ops the chain needs beyond matmul, add and mul (from
# ``chain_ops``), as the engine defined them before the layer became one
# node.

def reference_relu(x):
    def vjp(g):
        g *= x.data > 0  # subgradient at 0 is 0
        return (g,)

    return autodiff._maybe_record("relu", (x,), np.maximum(x.data, 0.0), vjp)


def reference_transpose(x, axes):
    def vjp(g):
        return (np.transpose(g, np.argsort(axes)),)

    return autodiff._maybe_record("transpose", (x,), np.transpose(x.data, axes),
                                  vjp)


def reference_max_over_set(x, pairs):
    idx = np.asarray([sorted(pair) for pair in pairs], dtype=np.intp)
    first = x.data[..., idx[:, 0], :]
    second = x.data[..., idx[:, 1], :]
    first_wins = first >= second
    out_data = np.maximum(first, second, out=second)

    def vjp(g):
        gx = np.zeros_like(x.data)
        routed_first = g * first_wins
        gx[..., idx[:, 0], :] = routed_first
        g -= routed_first
        gx[..., idx[:, 1], :] = g
        return (gx,)

    return autodiff._maybe_record("max_over_set", (x,), out_data, vjp)


def reference_non_local(layer, x):
    """The layer as the 14 single ops its forward recorded before it became
    one node."""
    n_groups = len(layer.pairs)
    pooled = reference_max_over_set(x, layer.pairs)
    val = matmul(pooled, layer.g_w, layer.g_b)
    q_score = matmul(x, matmul(layer.theta_w, layer.wf_q))
    k_score = matmul(pooled, matmul(layer.phi_w, layer.wf_k))
    logits = add(q_score, reference_transpose(k_score, (0, 2, 1)),
                 matmul(layer.theta_b, layer.wf_q),
                 matmul(layer.phi_b, layer.wf_k), layer.wf_b)
    f = reference_relu(logits)
    message = matmul(f, val)
    return matmul(message, mul(layer.wx, 1.0 / n_groups), x)


def layer_and_input(rng, channels, batch, integer_affinity):
    """A layer with every weight drawn off its init, and an input.  With
    ``integer_affinity`` the input and the affinity's weights are small
    integers, so pooled pairs tie and some logits are exactly 0."""
    layer = NonLocalBlock(channels, DEFAULT_NODE_GROUPS, K, rng)
    for _, p in layer.named_parameters():
        p.data[...] = rng.standard_normal(p.shape) * 0.5
    x = rng.standard_normal((batch, K, channels))
    if integer_affinity:
        x = rng.integers(-2, 3, x.shape).astype(x.dtype)
        for p in (layer.theta_w, layer.theta_b, layer.phi_w, layer.phi_b,
                  layer.wf_q, layer.wf_k, layer.wf_b):
            p.data[...] = rng.integers(-2, 3, p.shape)
    return layer, Tensor(x, requires_grad=True)


def run(forward, layer, x, g):
    """Output and the gradients of ``x`` and the 10 parameters."""
    params = [p for _, p in layer.named_parameters()]
    for t in (x, *params):
        t.grad = None
    with Tape() as tape:
        out = forward(layer, x)
        tape.backward(out, grad=g)
    return [out.data, x.grad, *(p.grad for p in params)], len(tape.nodes)


def layer_forward(layer, x):
    return layer(x, True)


@pytest.mark.parametrize("integer_affinity", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matches_the_chain_of_single_ops_bitwise(dtype, integer_affinity,
                                                 monkeypatch):
    monkeypatch.setattr(autodiff, "DTYPE", dtype)
    rng = np.random.default_rng([31, integer_affinity])
    layer, x = layer_and_input(rng, 16, 6, integer_affinity)
    if integer_affinity:
        pairs = np.asarray(DEFAULT_NODE_GROUPS)
        first, second = x.data[:, pairs[:, 0]], x.data[:, pairs[:, 1]]
        assert (first == second).any()  # a tied pooled pair
        with Tape() as tape:
            reference_non_local(layer, x)
        (logits,) = [n.inputs[0].data for n in tape.nodes if n.op == "relu"]
        assert (logits == 0).any() and (logits > 0).any()
    g = rng.standard_normal(x.shape).astype(dtype)
    want, n_chain = run(reference_non_local, layer, x, g.copy())
    got, n_op = run(layer_forward, layer, x, g.copy())
    assert (n_chain, n_op) == (14, 1)
    for w, o in zip(want, got):
        assert o.dtype == w.dtype == dtype
        assert o.shape == w.shape and o.tobytes() == w.tobytes()


def random_batch_norm(rng, channels):
    bn = BatchNormNodes(channels)
    bn.gamma.data[...] = rng.standard_normal(channels)
    bn.beta.data[...] = rng.standard_normal(channels) * 0.5
    bn.state.running_mean[...] = rng.standard_normal(channels)
    bn.state.running_var[...] = rng.uniform(0.5, 2.0, channels)
    return bn


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_norm_prologue_matches_batch_norm_then_non_local_bitwise(
        dtype, skip, monkeypatch):
    # the input stage (no skip) and a block's bn2 → skip → non-local layer
    # as one node, against the batch_norm and non_local nodes they were
    monkeypatch.setattr(autodiff, "DTYPE", dtype)
    results = []
    for fused in (False, True):
        rng = np.random.default_rng([32, skip])
        layer, z = layer_and_input(rng, 16, 6, False)
        bn = random_batch_norm(rng, 16)
        skips = [Tensor(rng.standard_normal(z.shape), requires_grad=True)
                 for _ in range(skip)]
        g = rng.standard_normal(z.shape).astype(dtype)
        params = [p for _, p in layer.named_parameters()]
        with Tape() as tape:
            if fused:
                out = layer.after_batch_norm(z, bn, *skips)
                (node,) = tape.nodes
                assert node.op == "matmul"
                assert node.inputs == (z, *params, bn.gamma, bn.beta, *skips)
            else:
                out = layer(batch_norm(z, bn.gamma, bn.beta, bn.state,
                                       *skips), True)
                assert len(tape.nodes) == 2
            tape.backward(out, g)
        results.append([out.data, z.grad, *(t.grad for t in skips),
                        bn.gamma.grad, bn.beta.grad,
                        *(p.grad for p in params),
                        bn.state.running_mean, bn.state.running_var])
    chain, fused = results
    assert len(chain) == 16 + skip
    for want, got in zip(chain, fused):
        assert got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert chain[0].dtype == dtype


# A taped forward of one layer at batch 32, 32 channels keeps its output
# (128 KiB) and the affinity (32 KiB); the node, its output tensor and the
# vjp's closure take well under this slack.  Any intermediate the node
# kept on top would exceed it: the smallest, the value embedding, is
# 32 KiB, and a batch-norm prologue's normalized input 128 KiB.
TAPE_SLACK_BYTES = 8 << 10


def check_taped_forward_keeps_only_the_output_and_the_affinity(
        prologue=None, skip=False):
    """With ``prologue``, the layer runs after a batch norm (and a skip)
    in its own node."""
    rng = np.random.default_rng(6)
    layer = NonLocalBlock(32, DEFAULT_NODE_GROUPS, K, rng)
    x = Tensor(rng.standard_normal((32, K, 32)), requires_grad=True)
    bn = random_batch_norm(rng, 32)
    skips = [Tensor(rng.standard_normal(x.shape), requires_grad=True)
             for _ in range(skip)]
    tape = Tape()
    tracemalloc.start()
    try:
        with tape:
            out = (layer.after_batch_norm(x, bn, *skips) if prologue
                   else layer(x, True))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    f_bytes = 32 * K * len(DEFAULT_NODE_GROUPS) * x.data.itemsize
    assert out.data.nbytes == 128 << 10 and f_bytes == 32 << 10
    assert kept <= out.data.nbytes + f_bytes + TAPE_SLACK_BYTES
    assert len(tape.nodes) == 1


def test_taped_forward_keeps_only_the_output_and_the_affinity():
    check_taped_forward_keeps_only_the_output_and_the_affinity()


@pytest.mark.parametrize("skip", [False, True])
def test_taped_prologue_keeps_only_the_output_and_the_affinity(skip):
    check_taped_forward_keeps_only_the_output_and_the_affinity(True, skip)
