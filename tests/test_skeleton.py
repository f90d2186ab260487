"""Skeleton structure, adjacency normalization, and the masked softmax."""

import numpy as np
import pytest

from semgcn.autodiff import Tape, Tensor
from semgcn.layers import SemGConv
from semgcn.skeleton import (
    DEFAULT_NODE_GROUPS,
    JOINT_NAMES,
    SkeletonError,
    adjacency,
    build_skeleton,
    normalize_adjacency,
    skeleton_hash,
)


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


@pytest.fixture(scope="module")
def adj(skel):
    return adjacency(skel)


class TestSkeleton:
    def test_joint_count(self, skel):
        assert skel.num_joints == 16

    def test_edge_count(self, skel):
        assert len(skel.edges) == 15

    def test_root_is_pelvis(self, skel):
        assert skel.joints[skel.root] == "pelvis"

    def test_tree_structure_validates(self, skel):
        skel.validate()

    def test_pelvis_children(self, skel):
        names = {skel.joints[c] for c, p in enumerate(skel.parent)
                 if p == skel.root}
        assert names == {"r_hip", "l_hip", "spine"}

    def test_limbs_are_two_bone_chains(self, skel):
        for hip, knee, ankle in (("r_hip", "r_knee", "r_ankle"),
                                 ("l_hip", "l_knee", "l_ankle")):
            k = skel.joints.index(knee)
            a = skel.joints.index(ankle)
            assert skel.joints[skel.parent[k]] == hip
            assert skel.joints[skel.parent[a]] == knee

    def test_all_bone_lengths_positive(self, skel):
        assert all(length > 0 for length in skel.canonical_bone_lengths)

    def test_grouping_is_a_perfect_pairing(self):
        flat = sorted(i for grp in DEFAULT_NODE_GROUPS for i in grp)
        assert flat == list(range(16))
        assert all(len(grp) == 2 for grp in DEFAULT_NODE_GROUPS)

    def test_hash_is_stable_and_json_round_trips(self, skel):
        assert skeleton_hash(skel) == skeleton_hash(build_skeleton())
        import json
        payload = json.loads(skel.to_json())
        assert payload["joints"] == list(JOINT_NAMES)
        assert payload["root"] == 0


class TestAdjacency:
    def test_pelvis_row_sum(self, skel, adj):
        assert adj[skel.root].sum() == 4  # three neighbors plus self

    def test_head_row_sum(self, skel, adj):
        head = skel.joints.index("head")
        assert adj[head].sum() == 2  # leaf plus self

    def test_symmetric_with_self_loops(self, adj):
        np.testing.assert_array_equal(adj, adj.T)
        np.testing.assert_array_equal(np.diag(adj), np.ones(16))

    def test_edges_match_support(self, skel, adj):
        for p, c in skel.edges:
            assert adj[p, c] == 1.0 and adj[c, p] == 1.0
        assert adj.sum() == 16 + 2 * 15


class TestNormalizeAdjacency:
    def test_two_node_hand_value(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(normalize_adjacency(a),
                                   [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_self_loop_row(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(normalize_adjacency(a), np.eye(2))

    def test_zero_degree_is_an_error(self):
        with pytest.raises(SkeletonError):
            normalize_adjacency(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_skeleton_normalization_properties(self, adj):
        # row sums of the symmetric normalization can exceed 1 on a tree
        # (the pelvis row does); the bounded quantity is the spectral norm
        norm = normalize_adjacency(adj)
        np.testing.assert_allclose(norm, norm.T, atol=1e-15)
        assert np.linalg.norm(norm, ord=2) <= 1.0 + 1e-12

    def test_spectral_radius_at_most_one(self, adj):
        # power iteration, as an independent check on the normalization
        norm = normalize_adjacency(adj)
        v = np.ones(16) / 4.0
        for _ in range(200):
            w = norm @ v
            v = w / np.linalg.norm(w)
        radius = abs(v @ norm @ v)
        assert radius <= 1.0 + 1e-9


def conv_with_logits(logits: np.ndarray, adj: np.ndarray) -> SemGConv:
    """A SemGConv whose edge logits are ``logits``, (K, K) or (D, K, K)."""
    channelwise = logits.ndim == 3
    conv = SemGConv(1, logits.shape[0] if channelwise else 1, adj,
                    np.random.default_rng(0), channelwise=channelwise)
    conv.mask.data = logits
    return conv


class TestMaskedSoftmax:
    """``SemGConv.edge_weights``: the softmax of edge logits masked to the
    skeleton adjacency."""

    def test_zero_logits_uniform_over_neighbors(self, skel, adj):
        s = conv_with_logits(np.zeros((16, 16)), adj).edge_weights().data
        pelvis = skel.root
        np.testing.assert_allclose(s[pelvis][adj[pelvis] == 1], 0.25)

    def test_large_logit_saturates(self, skel, adj):
        m = np.zeros((16, 16))
        spine = skel.joints.index("spine")
        m[skel.root, spine] = 10.0
        s = conv_with_logits(m, adj).edge_weights().data
        assert s[skel.root, spine] > 0.999

    def test_non_neighbors_exactly_zero(self, adj):
        rng = np.random.default_rng(0)
        s = conv_with_logits(rng.standard_normal((16, 16)), adj).edge_weights().data
        assert (s[adj == 0] == 0.0).all()

    def test_rows_stochastic_on_support(self, adj):
        rng = np.random.default_rng(1)
        s = conv_with_logits(rng.standard_normal((16, 16)) * 5,
                             adj).edge_weights().data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)

    def test_gradient_zero_off_support(self, adj):
        rng = np.random.default_rng(2)
        conv = conv_with_logits(rng.standard_normal((16, 16)), adj)
        with Tape() as tape:
            s = conv.edge_weights()
            # arbitrary loss touching every output entry
            loss = (s * Tensor(rng.standard_normal((16, 16)))).sum()
            tape.backward(loss)
        assert (conv.mask.grad[adj == 0] == 0.0).all()
        assert np.abs(conv.mask.grad[adj == 1]).max() > 0

    def test_channelwise_masks_supported(self, adj):
        rng = np.random.default_rng(3)
        conv = conv_with_logits(rng.standard_normal((5, 16, 16)), adj)
        with Tape() as tape:
            s = conv.edge_weights()
            tape.backward((s * Tensor(rng.standard_normal((5, 16, 16)))).sum())
        assert s.shape == (5, 16, 16)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)
        assert (s.data[:, adj == 0] == 0.0).all()
        assert (conv.mask.grad[:, adj == 0] == 0.0).all()


class TestUniformPropagation:
    """Edge logits start at zero, so a new SemGConv weighs each neighbor
    set uniformly: its edge weights are the row-normalized adjacency."""

    def test_rows_sum_to_one(self, adj):
        for channelwise in (False, True):
            conv = SemGConv(1, 3, adj, np.random.default_rng(4),
                            channelwise=channelwise)
            np.testing.assert_allclose(conv.edge_weights().data.sum(axis=-1),
                                       1.0, atol=1e-15)

    def test_matches_masked_softmax_at_zero_logits(self, adj):
        conv = SemGConv(1, 3, adj, np.random.default_rng(5), channelwise=True)
        uniform = adj / adj.sum(1, keepdims=True)
        for s in conv.edge_weights().data:
            np.testing.assert_allclose(s, uniform, atol=1e-12)
