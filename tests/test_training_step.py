"""One training step as the benchmark runs it: the ops it records on the
tape, and the memory it keeps between steps."""

import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import semgcn
from semgcn import autodiff, training
from semgcn.autodiff import AutodiffError, Tape
from semgcn.checkpoint import load_checkpoint, save_checkpoint
from semgcn.layers import SemGConv
from semgcn.network import VARIANTS, NetworkConfig, build_network
from semgcn.skeleton import build_skeleton
from semgcn.training import Adam, evaluate, pose_loss, predict, train_step

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class KeptTape(Tape):
    """A tape that remembers the last instance opened, so a test can read
    the tape ``train_step`` opens and closes itself."""

    last = None

    def __enter__(self):
        KeptTape.last = self
        return super().__enter__()


def make_step(variant, channels, blocks, batch, use_bone=False):
    """A closure running one ``train_step``; it returns that step's tape."""
    g = build_skeleton()
    net = build_network(NetworkConfig(variant=variant, channels=channels,
                                      blocks=blocks), g, seed=0)
    opt = Adam(net.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, g.num_joints, 2))
    y = rng.standard_normal((batch, g.num_joints, 3)) * 100.0

    def step():
        with mock.patch.object(training, "Tape", KeptTape):
            train_step(net, opt, x, y, g, use_bone)
        return KeptTape.last

    return step


@pytest.mark.parametrize("variant", ["semgcn", "resgcn"])
def test_every_tape_op_is_a_benchmark_metric(variant):
    # the traced benchmark refuses to report an op kind it does not declare
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    ops = Counter(node.op for node in make_step(variant, 4, 1, 4)().nodes)
    assert ops
    undeclared = sorted(op for op in ops
                        if f"autodiff.tape_nodes.{op}" not in declared)
    assert not undeclared


def test_every_op_kind_has_a_caller():
    # one toy step per trainable configuration; an op kind that none of
    # them records is dead code
    recorded = set(re.findall(r'_maybe_record\("(\w+)"',
                              Path(autodiff.__file__).read_text()))
    configs = [dict(variant=v) for v in VARIANTS] + [
        dict(variant="semgcn", use_bone=True)]
    used = set()
    for config in configs:
        used |= {node.op for node in make_step(channels=4, blocks=1, batch=4,
                                                **config)().nodes}
    assert len(recorded) == 3
    assert used == recorded


# One step's tape at channels 4, one block, batch 4: every graph conv is
# one graph_conv node that keeps only its output (an edge-weighted one
# forms its edge weights inside it), each non-local layer is one
# non_local node that keeps only its output (and the affinity, which is
# no node output), each batch norm applies its ReLU, a block's first
# batch norm runs in its second conv's node, a block's second batch norm
# adds its skip, a batch norm that feeds a non-local layer (the input
# stage's, and a block's second with its skip) runs in that layer's
# node, and the loss is one sum node, so splitting a fold back into its
# own node changes these counts and bytes.  semgcn keeps what resgcn
# keeps: each of its non-local nodes takes the place of a batch norm
# node and keeps an output of the same size.
TAPE_AT_SMALL_SIZE = {
    "semgcn": ({"matmul": 6, "sum": 1}, 11_784),
    "resgcn": ({"matmul": 4, "batch_norm": 2, "sum": 1}, 11_784),
}


@pytest.mark.parametrize("variant", sorted(TAPE_AT_SMALL_SIZE))
def test_tape_nodes_and_bytes_are_pinned(variant):
    ops, nbytes = TAPE_AT_SMALL_SIZE[variant]
    tape = make_step(variant, 4, 1, 4)()
    assert Counter(node.op for node in tape.nodes) == ops
    assert sum(node.output.data.nbytes for node in tape.nodes) == nbytes


# One paper-size step's tape (128 channels, 4 blocks, batch 64): node
# count and bytes.  A (64, 16, 128) activation is 1 MiB, and each block
# keeps three (conv1's output, the conv2 node's output with bn1 as its
# prologue, and the output of the node that runs bn2 and adds the skip:
# a batch_norm node, or the non-local node with bn2 as its prologue).
# With the input stage's batch norm in the input non-local node, every
# variant records as many nodes and bytes.
TAPE_AT_PAPER_SIZE = {
    "semgcn": (16, 14_704_648),
    "semgcn-nonl-only": (16, 14_704_648),
    "semgcn-conv-only": (16, 14_704_648),
    "resgcn": (16, 14_704_648),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_paper_size_tape_is_pinned(variant):
    tape = make_step(variant, 128, 4, 64)()
    nodes, nbytes = TAPE_AT_PAPER_SIZE[variant]
    assert len(tape.nodes) == nodes
    assert sum(node.output.data.nbytes for node in tape.nodes) == nbytes


class MeasuredTape(KeptTape):
    """A kept tape whose backward records, under ``tracemalloc``, the
    traced memory when it starts and the peak while it runs."""

    def backward(self, root, grad=None):
        self.kept, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        super().backward(root, grad)
        _, self.peak = tracemalloc.get_traced_memory()


# The most a paper-size backward may hold at once beyond what the forward
# left (the tape and what its nodes keep), written down from the design
# rather than measured: every parameter gradient; two gradients in flight,
# a node's own output gradient and a block input's skip gradient, waiting
# for conv1's share; and the buffers of one vjp.  The vjp of a conv with
# a batch-norm prologue holds the recomputed input, one scratch and the
# input gradient; with one aggregation and no mask gradient it drops the
# recomputed input before the input gradient exists, so two.  Each is an
# activation in size.  Half an activation of slack covers the rest, an
# eighth each at this size: the prologue's ReLU mask, the (B, K, K)
# products behind a mask gradient, and a batch-row chunk of A_r^T gz_r.
VJP_BUFFERS = {"semgcn": 3, "semgcn-conv-only": 3, "semgcn-nonl-only": 2,
               "resgcn": 2}


@pytest.mark.parametrize("variant", VARIANTS)
def test_paper_size_backward_peak_is_bounded(variant):
    batch, channels = 64, 128
    step = make_step(variant, channels, 4, batch)
    tracemalloc.start()
    try:
        with mock.patch(f"{__name__}.KeptTape", MeasuredTape):
            tape = step()
    finally:
        tracemalloc.stop()
    params = build_network(NetworkConfig(variant=variant), build_skeleton(),
                           seed=0).parameters()
    grads = sum(p.data.nbytes for p in params)
    act = batch * 16 * channels * np.dtype(autodiff.DTYPE).itemsize
    bound = grads + (2 + VJP_BUFFERS[variant]) * act + act // 2
    assert tape.peak - tape.kept <= bound


# The ops an eval-mode forward runs at the same size: each conv → batch
# norm → ReLU stage, a block's second one with its skip, is numpy on the
# conv's product and runs no op, so only each non-local layer's
# non_local call and the output conv's graph_conv call ("matmul") run.
EVAL_OPS_AT_SMALL_SIZE = {
    "semgcn": {"matmul": 3},
    "semgcn-nonl-only": {"matmul": 3},
    "semgcn-conv-only": {"matmul": 1},
    "resgcn": {"matmul": 1},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_forward_is_inference_only(variant, ops_run):
    g = build_skeleton()
    net = build_network(NetworkConfig(variant=variant, channels=4, blocks=1),
                        g, seed=0)
    x = np.random.default_rng(0).standard_normal((4, g.num_joints, 2))
    _, ran = ops_run(lambda: net.forward(x, train=False))
    assert ran == EVAL_OPS_AT_SMALL_SIZE[variant]
    # an eval stage has no backward: differentiating one fails loudly,
    # before any node is recorded
    y = np.zeros((4, g.num_joints, 3))
    for run in (lambda: net.forward(x, train=False), lambda: predict(net, x),
                lambda: evaluate(net, x, y, g, use_bone=True)):
        with Tape() as tape, pytest.raises(AutodiffError, match="no backward"):
            run()
        assert tape.nodes == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_compute_dtype_reaches_every_engine_buffer(variant, monkeypatch,
                                                   tmp_path):
    # autodiff.DTYPE is the one place the compute dtype is named: at
    # float32 no tape output, gradient or optimizer buffer may fall back
    # to float64.  This says nothing about float32 accuracy.
    monkeypatch.setattr(autodiff, "DTYPE", np.float32)
    handed = []  # the dtype of every gradient the backward hands on
    accumulate = autodiff._accumulate
    monkeypatch.setattr(autodiff, "_accumulate", lambda tensor, g: (
        handed.append(g.dtype), accumulate(tensor, g)))
    g = build_skeleton()
    net = build_network(NetworkConfig(variant=variant, channels=4, blocks=1),
                        g, seed=0)
    opt = Adam(net.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, g.num_joints, 2))
    y = rng.standard_normal((4, g.num_joints, 3)) * 100.0
    with Tape() as tape:
        loss = pose_loss(net.forward(x, train=True), y, g, use_bone=True)
        tape.backward(loss, np.ones(()))  # a double seed takes loss's dtype
    f32 = np.dtype(np.float32)
    assert {node.output.data.dtype for node in tape.nodes} == {f32}
    assert set(handed) == {f32}
    assert {p.grad.dtype for p in net.parameters()} == {f32}
    opt.step()
    buffers = [*opt._m.values(), *opt._v.values(), opt._scratch]
    assert {a.dtype for a in buffers} == {f32}
    assert {p.data.dtype for p in net.parameters()} == {f32}

    pred = predict(net, x)
    assert pred.dtype == f32
    save_checkpoint(tmp_path / "net.ckpt", net)
    loaded, _ = load_checkpoint(tmp_path / "net.ckpt", g)
    assert {p.data.dtype for p in loaded.parameters()} == {f32}
    again = predict(loaded, x)
    assert again.dtype == f32 and again.tobytes() == pred.tobytes()


def test_adam_state_is_float32_at_the_default_compute_dtype():
    # the moments and update temporaries are float32 whatever the compute
    # dtype; the parameters and gradients keep it
    g = build_skeleton()
    net = build_network(NetworkConfig(variant="semgcn", channels=4, blocks=1),
                        g, seed=0)
    opt = Adam(net.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, g.num_joints, 2))
    y = rng.standard_normal((4, g.num_joints, 3)) * 100.0
    with Tape() as tape:
        tape.backward(pose_loss(net.forward(x, train=True), y, g))
    f64 = np.dtype(np.float64)
    assert autodiff.DTYPE == f64
    assert {p.grad.dtype for p in net.parameters()} == {f64}
    opt.step()
    buffers = [*opt._m.values(), *opt._v.values(), opt._scratch]
    assert {a.dtype for a in buffers} == {np.dtype(np.float32)}
    assert {p.data.dtype for p in net.parameters()} == {f64}


def reference_conv(layer, h):
    """A graph conv's product in numpy, before its bias: a vanilla one's
    propagation, or an edge-weighted one's row softmax of logits plus
    support, split into its diagonal and the rest, whose two products lie
    side by side in one operand of one GEMM."""
    if isinstance(layer, SemGConv):
        support, mask = (t.data for t in layer.graph())
        z = mask + support
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        eye = np.eye(len(s), dtype=s.dtype)
        z = np.concatenate([s * eye @ h, s * (1.0 - eye) @ h], axis=-1)
    else:
        z = np.matmul(layer.propagation.data, h)
    return z.reshape(-1, z.shape[-1]) @ layer.w.data.reshape(z.shape[-1], -1)


def reference_predict(net, x):
    """The eval forward of a variant without non-local layers (resgcn or
    semgcn-conv-only) written out in numpy at the parameters' dtype.
    Each stage rounds ``1 / sqrt(running_var + BN_EPS)`` and
    ``-running_mean`` (double buffers) to that dtype before either meets a
    parameter, then scales the conv's product and adds the shift."""
    conv = reference_conv

    def stage(layer, bn, h):
        dtype = bn.gamma.data.dtype
        inv = (1.0 / np.sqrt(bn.state.running_var + autodiff.BN_EPS)).astype(dtype)
        scale = bn.gamma.data * inv
        shift = ((layer.b.data + (-bn.state.running_mean).astype(dtype)) * scale
                 + bn.beta.data)
        out = np.maximum(conv(layer, h) * scale + shift, 0.0)
        return out.reshape(h.shape[:-1] + out.shape[-1:])

    h = stage(net.input_conv, net.input_bn, x.astype(net.input_bn.gamma.data.dtype))
    for block in net.blocks:
        inner = stage(block.conv2, block.bn2, stage(block.conv1, block.bn1, h))
        h = inner + h
    out = conv(net.output_conv, h) + net.output_conv.b.data
    return out.reshape(h.shape[:-1] + out.shape[-1:])


def test_float32_eval_rounds_running_statistics_to_the_parameters(monkeypatch):
    # the running statistics are double checkpoint buffers; at a float32
    # compute dtype each eval stage rounds them to float32 before they
    # meet a parameter, so predictions do not depend on where a double
    # crept in
    monkeypatch.setattr(autodiff, "DTYPE", np.float32)
    g = build_skeleton()
    net = build_network(NetworkConfig(variant="resgcn", channels=8, blocks=2),
                        g, seed=0)
    rng = np.random.default_rng(5)
    for _, p in net.named_parameters():
        p.data[...] = rng.standard_normal(p.shape) * 0.5
    for name, buf in net.named_buffers():
        buf[...] = (rng.uniform(0.3, 3.0, buf.shape) if name.endswith("var")
                    else rng.standard_normal(buf.shape))
    x = rng.standard_normal((6, g.num_joints, 2))
    pred = predict(net, x)
    want = reference_predict(net, x)
    assert pred.dtype == want.dtype == np.float32
    assert pred.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_edge_weighted_eval_matches_numpy_bitwise(dtype, monkeypatch):
    # every stage of an edge-weighted variant (R = 2: the edge softmax,
    # its self/neighbour split and the side-by-side GEMM, then the scale,
    # shift, ReLU and skip) is the numpy reference's, bit for bit
    monkeypatch.setattr(autodiff, "DTYPE", dtype)
    g = build_skeleton()
    net = build_network(NetworkConfig(variant="semgcn-conv-only", channels=8,
                                      blocks=2), g, seed=0)
    rng = np.random.default_rng(6)
    for _, p in net.named_parameters():
        p.data[...] = rng.standard_normal(p.shape) * 0.5
    for name, buf in net.named_buffers():
        buf[...] = (rng.uniform(0.3, 3.0, buf.shape) if name.endswith("var")
                    else rng.standard_normal(buf.shape))
    x = rng.standard_normal((6, g.num_joints, 2))
    pred = predict(net, x)
    want = reference_predict(net, x)
    assert pred.dtype == want.dtype == dtype
    assert pred.tobytes() == want.tobytes()


# Steps of a 6-block resgcn (a ~10 MiB tape) after two warm-up steps, in
# a fresh interpreter: freeing large arrays raises glibc's own trim
# threshold, so a process that has run other tests may keep its heap
# whatever the engine asks for.  The first step's tape is counted and
# dropped before the second: kept alive through the measured steps, it
# would hold its ~10 MiB off the free heap, which then fragments.  Small
# buffers that outlive a step (numpy's caches keep some) can still split
# the freed tape memory, so that the heap grows once, by 50-110 pages, at
# a step set by the process's address-space layout; it was never seen to
# grow twice, so the probe reports three windows of three steps each.
FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from test_training_step import make_step
step = make_step("resgcn", 64, 6, 64)
tape = step()
tape_pages = sum(n.output.data.nbytes for n in tape.nodes) // 4096
del tape
step()
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(tape_pages)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_steps_reuse_freed_tape_memory():
    src = Path(semgcn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE,
                          str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300)
    *windows, tape_pages = map(int, out.stdout.split())
    assert tape_pages > 2000  # 8 MiB, freed at the end of every step
    assert min(windows) < 64, f"{windows} minor faults in 3-step windows " \
        f"over a {tape_pages}-page tape"
