"""Layer-family tests: hand-computed values, degenerate equivalences,
init identities, gradient checks, and permutation equivariance."""

import hashlib

import numpy as np
import pytest

from chain_ops import matmul
from semgcn.autodiff import (
    BN_EPS,
    AutodiffError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)
from semgcn.layers import (
    BatchNormNodes,
    NonLocalBlock,
    ResidualGConvBlock,
    SemGConv,
    VanillaGConv,
    conv_bn_relu,
    glorot_uniform,
)
from semgcn.network import VARIANTS, NetworkConfig, build_network, count_params
from semgcn.skeleton import (
    DEFAULT_NODE_GROUPS,
    adjacency,
    build_skeleton,
    normalize_adjacency,
)

K = 16
C = 8


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


@pytest.fixture(scope="module")
def adj(skel):
    return adjacency(skel)


def rng_for(seed):
    return np.random.default_rng([seed, 0xFEED])


class TestVanillaGConv:
    def test_three_node_path_hand_value(self):
        # path a-b-c with self-loops and uniform rows: out_a = (1+2)/2, etc.
        path = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        prop = path / path.sum(1, keepdims=True)
        conv = VanillaGConv(1, 1, prop, rng_for(0))
        conv.w.data = np.array([[1.0]])
        out = conv(Tensor(np.array([[[1.0], [2.0], [3.0]]])))
        np.testing.assert_allclose(out.data.ravel(), [1.5, 2.0, 2.5])

    def test_identity_weights_identity_prop_is_relu(self):
        conv = VanillaGConv(3, 3, np.eye(4), rng_for(1))
        conv.w.data = np.eye(3)
        x = rng_for(2).standard_normal((2, 4, 3))
        out = conv(Tensor(x))
        np.testing.assert_array_equal(np.maximum(out.data, 0.0),
                                      np.maximum(x, 0.0))

    def test_gradient(self, adj):
        conv = VanillaGConv(C, C, normalize_adjacency(adj), rng_for(3))
        x = Tensor(rng_for(4).standard_normal((2, K, C)), requires_grad=True)
        probe = rng_for(5).standard_normal((2, K, C))
        params = [p for _, p in conv.named_parameters()]
        err = grad_check(lambda *_: conv(x), [x] + params, probe)
        assert err < 1e-4

    def test_matches_the_two_products_it_replaces(self, adj):
        # the form before graph_conv: propagation @ (x @ w) with the bias
        # as the outer product's addend
        rng = rng_for(6)
        conv = VanillaGConv(C, C, normalize_adjacency(adj), rng)
        conv.b.data = rng.standard_normal(C)
        x = Tensor(rng.standard_normal((3, K, C)), requires_grad=True)
        probe = rng.standard_normal((3, K, C))

        def run(forward):
            for t in (x, conv.w, conv.b):
                t.grad = None
            with Tape() as tape:
                out = forward()
                tape.backward(out, probe)
            return [out.data] + [t.grad for t in (x, conv.w, conv.b)]

        new = run(lambda: conv(x))
        old = run(lambda: matmul(conv.propagation, matmul(x, conv.w), conv.b))
        for got, want in zip(new, old):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_width_mismatch(self, adj):
        # both graph convolutions leave the check to graph_conv
        for conv in (VanillaGConv(C, C, normalize_adjacency(adj), rng_for(5)),
                     SemGConv(C, C, adj, rng_for(5))):
            with pytest.raises(ShapeError):
                conv(Tensor(np.zeros((2, K, C + 1))))


def brute_force_uniform_aggregation(x, w, edges, k):
    """Uniform-neighbor aggregation straight from the edge list: for each
    node, average the transformed features of itself and its neighbors."""
    neighbors = {i: {i} for i in range(k)}
    for p, c in edges:
        neighbors[p].add(c)
        neighbors[c].add(p)
    h = x @ w
    out = np.zeros_like(h)
    for i in range(k):
        members = sorted(neighbors[i])
        out[:, i, :] = h[:, members, :].sum(axis=1) / len(members)
    return out


class TestSemGConv:
    def test_two_node_hand_value(self):
        adj2 = np.ones((2, 2))
        conv = SemGConv(1, 1, adj2, rng_for(6))
        conv.w.data[0] = np.array([[1.0]])
        conv.w.data[1] = np.array([[1.0]])
        out = conv(Tensor(np.array([[[1.0], [3.0]]])))
        # uniform mask: node 0 gets 0.5*1 (self) + 0.5*3 (neighbor)
        np.testing.assert_allclose(out.data.ravel(), [2.0, 2.0])

    def test_zero_mask_equals_uniform_brute_force(self, skel, adj):
        # degenerate-equivalence oracle: M = 0 and w[0] == w[1] must reproduce
        # uniform-neighbor averaging computed independently from the edges
        rng = rng_for(7)
        conv = SemGConv(C, C, adj, rng)
        conv.w.data[1] = conv.w.data[0]
        x = rng.standard_normal((3, K, C))
        expected = brute_force_uniform_aggregation(x, conv.w.data[0],
                                                   skel.edges, K)
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_matches_vanilla_with_uniform_propagation(self, adj):
        rng = rng_for(8)
        sem = SemGConv(C, C, adj, rng)
        sem.w.data[1] = sem.w.data[0]
        van = VanillaGConv(C, C, adj / adj.sum(1, keepdims=True), rng)
        van.w.data = sem.w.data[0].copy()
        x = rng.standard_normal((2, K, C))
        np.testing.assert_allclose(sem(Tensor(x)).data, van(Tensor(x)).data,
                                   atol=1e-10)

    def test_gradient_including_mask(self, adj):
        rng = rng_for(9)
        conv = SemGConv(C, C, adj, rng)
        conv.mask.data = rng.standard_normal((K, K)) * 0.3
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        probe = rng.standard_normal((2, K, C))
        params = [p for _, p in conv.named_parameters()]
        err = grad_check(lambda *_: conv(x), [x] + params, probe)
        assert err < 1e-4


class TestNonLocal:
    def test_identity_at_init(self, skel):
        rng = rng_for(15)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        x = rng.standard_normal((4, K, C))
        out = layer(Tensor(x)).data
        assert np.array_equal(out, x)  # w_x = 0: bitwise identity

    def test_zero_affinity_is_identity(self, skel):
        rng = rng_for(16)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        layer.wx.data = rng.standard_normal((C // 2, C))
        # drive every pre-ReLU affinity negative: f == 0 kills the message
        layer.wf_q.data[...] = 0.0
        layer.wf_k.data[...] = 0.0
        layer.wf_b.data[...] = -5.0
        x = rng.standard_normal((2, K, C))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)

    def test_gradient(self, skel):
        rng = rng_for(17)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        layer.wx.data = rng.standard_normal((C // 2, C)) * 0.3
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in layer.named_parameters()]
        err = grad_check(lambda *_: layer(x), [x] + params,
                         np.ones(x.shape))
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_concatenation_affinity_reference(self, seed):
        # numpy reference that forms the query and key embeddings and the
        # concatenated pairs [q_i || k_j] the affinity is defined on
        rng = rng_for(20 + seed)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        for _, p in layer.named_parameters():
            p.data = p.data + rng.standard_normal(p.shape) * 0.5
        x = rng.standard_normal((3, K, C))
        pairs = np.asarray(DEFAULT_NODE_GROUPS)
        pooled = np.maximum(x[:, pairs[:, 0]], x[:, pairs[:, 1]])
        q = x @ layer.theta_w.data + layer.theta_b.data          # (B, K, E)
        key = pooled @ layer.phi_w.data + layer.phi_b.data       # (B, G, E)
        val = pooled @ layer.g_w.data + layer.g_b.data           # (B, G, E)
        b, g, e = key.shape
        concat = np.concatenate([np.broadcast_to(q[:, :, None], (b, K, g, e)),
                                 np.broadcast_to(key[:, None], (b, K, g, e))],
                                axis=-1)                         # (B, K, G, 2E)
        wf = np.concatenate([layer.wf_q.data, layer.wf_k.data])[:, 0]
        f = np.maximum(concat @ wf + layer.wf_b.data, 0.0)
        assert 0 < np.count_nonzero(f) < f.size  # both sides of the ReLU
        expected = x + f @ val @ layer.wx.data / g
        np.testing.assert_allclose(layer(Tensor(x)).data, expected,
                                   rtol=1e-12, atol=0)

    def test_affinity_halves_are_one_draw_in_own_arrays(self):
        # wf_q and wf_k are the halves of one (2E, 1) Glorot draw, made
        # after theta_w, phi_w and g_w; each owns its memory
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng_for(18))
        rng = rng_for(18)
        for _ in range(3):
            glorot_uniform(rng, C, C // 2, (C, C // 2))
        wf = glorot_uniform(rng, C, 1, (C, 1))
        assert np.array_equal(layer.wf_q.data, wf[:C // 2])
        assert np.array_equal(layer.wf_k.data, wf[C // 2:])
        assert layer.wf_q.data.base is None and layer.wf_k.data.base is None

    def test_grouping_must_partition(self):
        with pytest.raises(ShapeError):
            NonLocalBlock(C, ((0, 1), (1, 2)), 4, rng_for(18))

    def test_width_mismatch(self):
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng_for(19))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, K, C + 2))))


def random_stage(kind, adj, rng):
    """A conv of ``kind`` and the batch norm it feeds, with every tensor
    and running statistic drawn off its initial value."""
    if kind == "semgconv":
        conv = SemGConv(C, C, adj, rng)
        conv.mask.data = rng.standard_normal((K, K)) * 0.1
    else:
        conv = VanillaGConv(C, C, normalize_adjacency(adj), rng)
    conv.b.data = rng.standard_normal(C)
    bn = BatchNormNodes(C)
    bn.gamma.data = rng.standard_normal(C)
    bn.beta.data = rng.standard_normal(C)
    bn.state.running_mean[:] = rng.standard_normal(C)
    bn.state.running_var[:] = rng.uniform(0.5, 2.0, C)
    return conv, bn


class TestConvBnReluStage:
    @pytest.mark.parametrize("kind", ["vanilla", "semgconv"])
    def test_eval_stage_is_conv_then_batch_norm_in_one_node(self, adj, kind,
                                                          ops_run):
        rng = rng_for(31)
        conv, bn = random_stage(kind, adj, rng)
        x = Tensor(rng.standard_normal((3, K, C)))
        out, ops = ops_run(lambda: conv_bn_relu(conv, bn, x, train=False))
        # the conv's own ops and nothing else: batch norm, its scale and
        # its shift add no op
        z, conv_ops = ops_run(lambda: conv(x).data)
        assert ops == conv_ops and ops["matmul"] == 1
        # the conv's output, then batch norm by the running statistics
        inv = 1.0 / np.sqrt(bn.state.running_var + BN_EPS)
        want = np.maximum(
            bn.gamma.data * (z - bn.state.running_mean) * inv + bn.beta.data, 0.0)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    @pytest.mark.parametrize("overflows", ["scale", "shift"])
    def test_eval_stage_refuses_non_finite_scale_or_shift(self, adj,
                                                          overflows):
        # the running statistics alone can overflow the stage's epilogue;
        # it raises before the product runs, so the message is its own
        rng = rng_for(32)
        conv, bn = random_stage("vanilla", adj, rng)
        bn.state.running_var[:] = 0.0  # scale = gamma * 1e4
        if overflows == "scale":
            bn.gamma.data[:] = 1e306
        else:
            bn.gamma.data[:] = 1.0
            bn.state.running_mean[:] = -1e306
        x = Tensor(rng.standard_normal((2, K, C)))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="non-finite scale or shift"):
            conv_bn_relu(conv, bn, x, train=False)

    def test_train_stage_takes_no_skip(self, adj):
        # a residual block's train stages are its own forward's: bn1 runs
        # in conv2's node, so no train stage closes a block
        conv, bn = random_stage("vanilla", adj, rng_for(33))
        x = Tensor(np.ones((2, K, C)))
        with pytest.raises(AutodiffError, match="ResidualGConvBlock"):
            conv_bn_relu(conv, bn, x, train=True, skip=x)

    def test_batch_norm_layer_alone_runs_train_mode_only(self):
        with pytest.raises(AutodiffError, match="conv_bn_relu"):
            BatchNormNodes(C)(Tensor(np.zeros((2, K, C))), train=False)


class TestResidualBlock:
    def _block(self, adj, rng, with_nonlocal=True):
        nl = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng) if with_nonlocal \
            else None
        return ResidualGConvBlock(
            conv1=SemGConv(C, C, adj, rng), bn1=BatchNormNodes(C),
            conv2=SemGConv(C, C, adj, rng), bn2=BatchNormNodes(C),
            nonlocal_layer=nl)

    @staticmethod
    def _named_parameters(block):
        # the block owns no tensors of its own: collect its layers'
        for layer in (block.conv1, block.bn1, block.conv2, block.bn2,
                      block.nonlocal_layer):
            yield from layer.named_parameters()

    def test_has_no_tensor_walk(self, adj):
        # a walk of the block itself would find nothing; only
        # Network.named_layers walks its layers
        block = self._block(adj, rng_for(19))
        with pytest.raises(AttributeError):
            block.named_parameters
        with pytest.raises(AttributeError):
            block.named_buffers

    def test_dead_branch_is_identity(self, adj):
        rng = rng_for(20)
        block = self._block(adj, rng)
        for conv in (block.conv1, block.conv2):
            conv.w.data[0] = 0.0
            conv.w.data[1] = 0.0
        x = rng.standard_normal((2, K, C))
        out = block.forward(Tensor(x), train=False).data
        np.testing.assert_array_equal(out, x)

    def test_output_shape_matches_input(self, adj):
        rng = rng_for(21)
        block = self._block(adj, rng)
        x = rng.standard_normal((3, K, C))
        assert block.forward(Tensor(x), train=True).shape == x.shape

    def test_skip_path_carries_gradient(self, adj):
        rng = rng_for(22)
        block = self._block(adj, rng, with_nonlocal=False)
        for conv in (block.conv1, block.conv2):
            conv.w.data[0] = 0.0
            conv.w.data[1] = 0.0
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        with Tape() as tape:
            out = block.forward(x, train=True)
            tape.backward(out, np.ones(out.shape))
        # dead residual branch: input gradient equals the output seed
        np.testing.assert_allclose(x.grad, np.ones_like(x.data), atol=1e-12)

    def test_gradient_train_mode(self, adj):
        # conv biases are excluded: train-mode batch norm subtracts the
        # batch mean, so a constant shift has an exactly-zero gradient and
        # the relative-error ratio only measures rounding noise
        rng = rng_for(23)
        block = self._block(adj, rng)
        block.nonlocal_layer.wx.data = rng.standard_normal((C // 2, C)) * 0.2
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for name, p in self._named_parameters(block)
                  if name != "b"]
        assert len(params) == 18
        probe = rng.standard_normal((2, K, C))
        err = grad_check(lambda *_: block.forward(x, train=True), [x] + params,
                         probe)
        assert err < 1e-4


class TestEquivariance:
    """Permuting node order of inputs and graph structures together must
    permute outputs identically."""

    @pytest.mark.parametrize("seed", range(3))
    def test_semgconv_node_permutation(self, skel, adj, seed):
        rng = rng_for(100 + seed)
        perm = rng.permutation(K)
        conv = SemGConv(C, C, adj, rng)
        conv.mask.data = rng.standard_normal((K, K))
        x = rng.standard_normal((2, K, C))
        out = conv(Tensor(x)).data

        adj_p = adj[np.ix_(perm, perm)]
        conv_p = SemGConv(C, C, adj_p, rng)
        conv_p.w.data[0] = conv.w.data[0]
        conv_p.w.data[1] = conv.w.data[1]
        conv_p.b.data = conv.b.data.copy()
        conv_p.mask.data = conv.mask.data[np.ix_(perm, perm)]
        out_p = conv_p(Tensor(x[:, perm, :])).data
        np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_vanilla_node_permutation(self, adj, seed):
        rng = rng_for(200 + seed)
        perm = rng.permutation(K)
        prop = normalize_adjacency(adj)
        conv = VanillaGConv(C, C, prop, rng)
        x = rng.standard_normal((2, K, C))
        out = conv(Tensor(x)).data

        conv_p = VanillaGConv(C, C, prop[np.ix_(perm, perm)], rng)
        conv_p.w.data = conv.w.data.copy()
        conv_p.b.data = conv.b.data.copy()
        out_p = conv_p(Tensor(x[:, perm, :])).data
        np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_nonlocal_under_group_preserving_permutation(self, seed):
        # swap whole groups and members within groups; the grouped max and
        # shared maps commute with exactly these permutations
        rng = rng_for(300 + seed)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        layer.wx.data = rng.standard_normal((C // 2, C))

        group_order = rng.permutation(len(DEFAULT_NODE_GROUPS))
        perm = []
        new_groups = []
        for gi in group_order:
            a, b = DEFAULT_NODE_GROUPS[gi]
            pair = [a, b] if rng.random() < 0.5 else [b, a]
            new_groups.append((len(perm), len(perm) + 1))
            perm.extend(pair)
        perm = np.array(perm)  # perm[new_index] = old_index

        layer_p = NonLocalBlock(C, tuple(new_groups), K, rng)
        for (_, p), (_, q) in zip(layer.named_parameters(),
                                  layer_p.named_parameters()):
            q.data = p.data.copy()

        x = rng.standard_normal((2, K, C))
        out = layer(Tensor(x)).data
        out_p = layer_p(Tensor(x[:, perm, :])).data
        np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12)


# sha256 of each variant's seed-0 parameters at the paper's size, as
# little-endian float64 bytes in ``named_parameters`` order, and the
# parameter count.  The values come from PCG64 draws and elementwise
# arithmetic only (no BLAS), so they are the same on every machine; a
# change to a layer's draw order or parameter layout shows up here.
SEED0_PARAMS = {
    "semgcn": ("b8e7f020450de97365e3accf5716a24077e48436cba629274916ae7100c6786b",
               434_888),
    "semgcn-nonl-only": (
        "07caad3775a32b9ec7957fb58b9f669242a8c401f34644696520e7c57e4bf22c",
        300_616),
    "semgcn-conv-only": (
        "23c8457c384f0d906af85b6a2d414bd1aabed92a115ee5b393b269cbcdb30aad",
        269_443),
    "resgcn": ("557e017f1ff0b69fbb44b97b79e4994faeba4235e84163ea6130faefb15849f9",
               135_171),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_network_input_must_be_finite(skel, value):
    net = build_network(NetworkConfig(variant="resgcn", channels=4, blocks=1),
                        skel)
    x = np.zeros((2, K, 2))
    x[1, 3, 0] = value
    with pytest.raises(NonFiniteError, match="network input"):
        net.forward(x)


@pytest.mark.parametrize("variant", VARIANTS)
def test_seed0_parameters_are_pinned(skel, variant):
    net = build_network(NetworkConfig(variant=variant), skel, seed=0)
    digest = hashlib.sha256()
    for _, p in net.named_parameters():
        digest.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    assert (digest.hexdigest(), count_params(net)) == SEED0_PARAMS[variant]


# sha256 of each variant's parameter names and buffer names at 4 channels
# and 2 blocks, joined by newlines in ``named_parameters`` and
# ``named_buffers`` order.  Checkpoint manifests are written in this order
# and under these names, so a renamed or reordered tensor shows up here.
NAME_DIGESTS = {
    "semgcn": "e110f1f0efb9e46b460f7cbc1ead07900723aab6f3805814282d0b30f46c135c",
    "semgcn-nonl-only":
        "011ea96b6d2d8550a219e2a1f242964f9d29c722c4868f117aad0c072d4cedd4",
    "semgcn-conv-only":
        "046702f6572df9f4178da912b599c3011aaeb632546b4d8fecb3369010538f01",
    "resgcn": "d356834900a427e305dda1b831895f5e621083bc03b38234ca8ede1ede95f22b",
}
BUFFER_NAME_DIGEST = \
    "db3b1c90576d56bd31cf38ad1689c3e81c77c5d494548dd4e088d61f809eae53"


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_and_buffer_names_are_pinned(skel, variant):
    net = build_network(NetworkConfig(variant=variant, channels=4, blocks=2),
                        skel)

    def digest(named):
        return hashlib.sha256("\n".join(n for n, _ in named).encode()).hexdigest()

    assert digest(net.named_parameters()) == NAME_DIGESTS[variant]
    assert digest(net.named_buffers()) == BUFFER_NAME_DIGEST


@pytest.mark.parametrize("variant, names", [
    ("semgcn", ["input.conv", "input.bn", "input.nonlocal",
                "blocks.0.conv1", "blocks.0.bn1", "blocks.0.conv2",
                "blocks.0.bn2", "blocks.0.nonlocal", "output.conv"]),
    ("resgcn", ["input.conv", "input.bn", "blocks.0.conv1", "blocks.0.bn1",
                "blocks.0.conv2", "blocks.0.bn2", "output.conv"]),
])
def test_named_layers_name_the_parameters(skel, variant, names):
    net = build_network(NetworkConfig(variant=variant, channels=4, blocks=1),
                        skel)
    layers = list(net.named_layers())
    assert [name for name, _ in layers] == names
    # each layer's tensors sit together, in the layer's own order, under
    # its prefix
    expected = [(f"{prefix}.{name}", t) for prefix, layer in layers
                for name, t in layer.named_parameters()]
    got = list(net.named_parameters())
    assert [n for n, _ in got] == [n for n, _ in expected]
    assert all(a is b for (_, a), (_, b) in zip(got, expected))
