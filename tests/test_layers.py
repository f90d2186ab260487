"""Layer-family tests: hand-computed values, degenerate equivalences,
init identities, gradient checks, and permutation equivariance."""

import numpy as np
import pytest

from semgcn.autodiff import ShapeError, Tensor, grad_check, mul
from semgcn.layers import (
    BatchNormNodes,
    NonLocalBlock,
    ResidualGConvBlock,
    SemGConv,
    VanillaGConv,
)
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
        conv = VanillaGConv(3, 3, np.eye(4), rng_for(1), activation=True)
        conv.w.data = np.eye(3)
        x = rng_for(2).standard_normal((2, 4, 3))
        out = conv(Tensor(x))
        np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))

    def test_gradient(self, adj):
        conv = VanillaGConv(C, C, normalize_adjacency(adj), rng_for(3),
                            activation=True)
        x = Tensor(rng_for(4).standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in conv.named_parameters()]
        err = grad_check(lambda *_: conv(x).sum(), [x] + params)
        assert err < 1e-4

    def test_width_mismatch(self, adj):
        conv = VanillaGConv(C, C, normalize_adjacency(adj), rng_for(5))
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
        conv.w0.data = np.array([[1.0]])
        conv.w1.data = np.array([[1.0]])
        out = conv(Tensor(np.array([[[1.0], [3.0]]])))
        # uniform mask: node 0 gets 0.5*1 (self) + 0.5*3 (neighbor)
        np.testing.assert_allclose(out.data.ravel(), [2.0, 2.0])

    def test_zero_mask_equals_uniform_brute_force(self, skel, adj):
        # degenerate-equivalence oracle: M = 0 and w0 == w1 must reproduce
        # uniform-neighbor averaging computed independently from the edges
        rng = rng_for(7)
        conv = SemGConv(C, C, adj, rng)
        conv.w1.data = conv.w0.data.copy()
        x = rng.standard_normal((3, K, C))
        expected = brute_force_uniform_aggregation(x, conv.w0.data,
                                                   skel.edges, K)
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_matches_vanilla_with_uniform_propagation(self, adj):
        rng = rng_for(8)
        sem = SemGConv(C, C, adj, rng)
        sem.w1.data = sem.w0.data.copy()
        van = VanillaGConv(C, C, adj / adj.sum(1, keepdims=True), rng)
        van.w.data = sem.w0.data.copy()
        x = rng.standard_normal((2, K, C))
        np.testing.assert_allclose(sem(Tensor(x)).data, van(Tensor(x)).data,
                                   atol=1e-10)

    def test_gradient_including_mask(self, adj):
        rng = rng_for(9)
        conv = SemGConv(C, C, adj, rng, activation=True)
        conv.mask.data = rng.standard_normal((K, K)) * 0.3
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in conv.named_parameters()]
        err = grad_check(lambda *_: conv(x).sum(), [x] + params)
        assert err < 1e-4


class TestSemGConvChannelwise:
    def test_identical_masks_equal_single_mode(self, adj):
        rng = rng_for(10)
        single = SemGConv(C, C, adj, rng, channelwise=False)
        cw = SemGConv(C, C, adj, rng, channelwise=True)
        for name in ("w0", "w1", "b"):
            getattr(cw, name).data = getattr(single, name).data.copy()
        base_mask = rng_for(11).standard_normal((K, K))
        single.mask.data = base_mask.copy()
        cw.mask.data = np.repeat(base_mask[None], C, axis=0)
        x = rng.standard_normal((2, K, C))
        np.testing.assert_allclose(cw(Tensor(x)).data, single(Tensor(x)).data,
                                   atol=1e-10)

    def test_distinct_masks_change_channels(self, adj):
        rng = rng_for(12)
        cw = SemGConv(C, C, adj, rng, channelwise=True)
        cw.mask.data[0] = 0.0
        cw.mask.data[1] = rng.standard_normal((K, K)) * 2.0
        x = rng.standard_normal((2, K, C))
        out = cw(Tensor(x)).data
        # same input columns, different masks: channel outputs must differ
        cw2 = SemGConv(C, C, adj, rng_for(12), channelwise=True)
        cw2.w0.data = cw.w0.data.copy()
        cw2.w1.data = cw.w1.data.copy()
        cw2.mask.data[...] = 0.0
        out_uniform = cw2(Tensor(x)).data
        assert np.abs(out[..., 1] - out_uniform[..., 1]).max() > 1e-6
        np.testing.assert_allclose(out[..., 0], out_uniform[..., 0],
                                   atol=1e-12)

    def test_gradient_over_all_masks(self, adj):
        rng = rng_for(13)
        conv = SemGConv(C, C, adj, rng, channelwise=True, activation=True)
        conv.mask.data = rng.standard_normal((C, K, K)) * 0.3
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in conv.named_parameters()]
        err = grad_check(lambda *_: conv(x).sum(), [x] + params)
        assert err < 1e-4

    def test_mask_count_mismatch(self, adj):
        conv = SemGConv(C, C, adj, rng_for(14), channelwise=True)
        assert conv.mask.shape == (C, K, K)


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
        layer.wf_w.data[...] = 0.0
        layer.wf_b.data[...] = -5.0
        x = rng.standard_normal((2, K, C))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)

    def test_gradient(self, skel):
        rng = rng_for(17)
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng)
        layer.wx.data = rng.standard_normal((C // 2, C)) * 0.3
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in layer.named_parameters()]
        err = grad_check(lambda *_: layer(x).sum(), [x] + params)
        assert err < 1e-4

    def test_grouping_must_partition(self):
        with pytest.raises(ShapeError):
            NonLocalBlock(C, ((0, 1), (1, 2)), 4, rng_for(18))

    def test_width_mismatch(self):
        layer = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng_for(19))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, K, C + 2))))


class TestResidualBlock:
    def _block(self, adj, rng, with_nonlocal=True):
        nl = NonLocalBlock(C, DEFAULT_NODE_GROUPS, K, rng) if with_nonlocal \
            else None
        return ResidualGConvBlock(
            conv1=SemGConv(C, C, adj, rng), bn1=BatchNormNodes(C),
            conv2=SemGConv(C, C, adj, rng), bn2=BatchNormNodes(C),
            nonlocal_layer=nl)

    def test_dead_branch_is_identity(self, adj):
        rng = rng_for(20)
        block = self._block(adj, rng)
        for conv in (block.conv1, block.conv2):
            conv.w0.data[...] = 0.0
            conv.w1.data[...] = 0.0
        x = rng.standard_normal((2, K, C))
        out = block(Tensor(x), train=False).data
        np.testing.assert_array_equal(out, x)

    def test_output_shape_matches_input(self, adj):
        rng = rng_for(21)
        block = self._block(adj, rng)
        x = rng.standard_normal((3, K, C))
        assert block(Tensor(x), train=True).shape == x.shape

    def test_skip_path_carries_gradient(self, adj):
        rng = rng_for(22)
        block = self._block(adj, rng, with_nonlocal=False)
        for conv in (block.conv1, block.conv2):
            conv.w0.data[...] = 0.0
            conv.w1.data[...] = 0.0
        from semgcn.autodiff import Tape
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        with Tape() as tape:
            out = block(x, train=False)
            tape.backward(out.sum())
        # dead residual branch: input gradient equals the output seed
        np.testing.assert_allclose(x.grad, np.ones_like(x.data), atol=1e-12)

    def test_gradient_eval_mode(self, adj):
        rng = rng_for(23)
        block = self._block(adj, rng)
        block.nonlocal_layer.wx.data = rng.standard_normal((C // 2, C)) * 0.2
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for _, p in block.named_parameters()]
        probe = Tensor(rng.standard_normal((2, K, C)))
        err = grad_check(lambda *_: mul(block(x, train=False), probe).sum(),
                         [x] + params)
        assert err < 1e-4

    def test_gradient_train_mode(self, adj):
        # conv biases are excluded: train-mode batch norm subtracts the
        # batch mean, so a constant shift has an exactly-zero gradient and
        # the relative-error ratio only measures rounding noise
        rng = rng_for(23)
        block = self._block(adj, rng)
        block.nonlocal_layer.wx.data = rng.standard_normal((C // 2, C)) * 0.2
        x = Tensor(rng.standard_normal((2, K, C)), requires_grad=True)
        params = [p for name, p in block.named_parameters()
                  if not name.endswith(".b")]
        probe = Tensor(rng.standard_normal((2, K, C)))
        err = grad_check(lambda *_: mul(block(x, train=True), probe).sum(),
                         [x] + params)
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
        conv_p.w0.data = conv.w0.data.copy()
        conv_p.w1.data = conv.w1.data.copy()
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
        for name in ("theta_w", "theta_b", "phi_w", "phi_b", "g_w", "g_b",
                     "wf_w", "wf_b", "wx"):
            getattr(layer_p, name).data = getattr(layer, name).data.copy()

        x = rng.standard_normal((2, K, C))
        out = layer(Tensor(x)).data
        out_p = layer_p(Tensor(x[:, perm, :])).data
        np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12)
