"""Engine-level tests: primitive semantics, backward passes, the
finite-difference oracle, and tape behavior."""

import tracemalloc

import numpy as np
import pytest

from chain_ops import add, matmul, mul, softmax_lastdim, tensor_sum
from semgcn import autodiff
from semgcn.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    AutodiffError,
    BatchNormState,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    batch_norm,
    edge_softmax,
    grad_check,
    graph_conv,
    non_local,
    squared_error,
)
from semgcn.layers import BatchNormNodes, NonLocalBlock, VanillaGConv, conv_bn_relu
from semgcn.skeleton import mask_logit_bias


def backward_of(f, *arrays):
    """Gradients of a scalar-valued tensor function at the given points."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = f(*tensors)
        tape.backward(out)
    return [t.grad for t in tensors]


ADDEND_FORMS = {
    # (a, b, full-shape addend, bias)
    "stacked": ((3, 4, 5), (5, 2), (3, 4, 2), (2,)),
    "broadcast": ((4, 4), (3, 4, 5), (3, 4, 5), (5,)),
    "vector": ((5,), (5, 3), (3,), (1,)),
}


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_computed(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_gradient_matches_hand_value(self):
        # d/da sum(a @ b) at a = I2, b = [[2,3],[4,5]] is ones @ b^T
        (ga, _) = backward_of(lambda a, b: tensor_sum(matmul(a, b)),
                              np.eye(2), np.array([[2.0, 3.0], [4.0, 5.0]]))
        np.testing.assert_allclose(ga, [[5.0, 9.0], [5.0, 9.0]])

    def test_gradient_against_oracle(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([[2.0, 3.0], [4.0, 5.0]]), requires_grad=True)
        err = grad_check(lambda a, b: matmul(a, b), [a, b], np.ones((2, 2)))
        assert err < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as excinfo:
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert "(2, 3)" in str(excinfo.value)

    def test_batched_against_oracle(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        s = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        err = grad_check(lambda x, w, s: tensor_sum(matmul(s, matmul(x, w))),
                         [x, w, s])
        assert err < 1e-6

    def test_stacked_vjp_hands_back_an_owned_buffer(self):
        # a view would cost _accumulate a full copy of the gradient
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        g = rng.standard_normal((3, 4, 2))
        with Tape() as tape:
            matmul(x, w)
            (node,) = tape.nodes
            ga, gb = node.vjp(g)
        assert ga.flags.owndata and ga.shape == (3, 4, 5)
        np.testing.assert_array_equal(
            ga, (g.reshape(-1, 2) @ w.data.T).reshape(3, 4, 5))
        np.testing.assert_array_equal(
            gb, x.data.reshape(-1, 5).T @ g.reshape(-1, 2))

    def test_vector_times_matrix(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.standard_normal(5), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        np.testing.assert_array_equal(matmul(v, w).data, v.data @ w.data)
        err = grad_check(lambda v, w: matmul(v, w), [v, w],
                         rng.standard_normal(3))
        assert err < 1e-6

    @pytest.mark.parametrize("shapes", [((5,), (2, 5, 3)), ((3, 5), (5,)),
                                        ((5,), (5,))])
    def test_vector_only_times_matrix(self, shapes):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(shapes[0])), Tensor(np.ones(shapes[1])))

    @pytest.mark.parametrize("form", sorted(ADDEND_FORMS))
    def test_addends_against_oracle(self, form):
        rng = np.random.default_rng(11)
        a, b, t, bias = (Tensor(rng.standard_normal(s), requires_grad=True)
                         for s in ADDEND_FORMS[form])
        probe = rng.standard_normal(t.shape)
        with Tape() as tape:
            matmul(a, b, t, bias)
        assert [node.op for node in tape.nodes] == ["matmul"]
        err = grad_check(lambda a, b, t, bias: matmul(a, b, t, bias),
                         [a, b, t, bias], probe)
        assert err < 1e-6

    @pytest.mark.parametrize("form", sorted(ADDEND_FORMS))
    def test_addends_equal_product_then_add_bitwise(self, form):
        rng = np.random.default_rng(12)
        a, b, t, bias = (Tensor(rng.standard_normal(s))
                         for s in ADDEND_FORMS[form])
        np.testing.assert_array_equal(matmul(a, b, t, bias).data,
                                      add(matmul(a, b), t, bias).data)

    def test_power_of_two_scale_moves_onto_the_weight_bitwise(self):
        rng = np.random.default_rng(13)
        m = Tensor(rng.standard_normal((6, 16, 8)))
        w = Tensor(rng.standard_normal((8, 7)))
        np.testing.assert_array_equal(matmul(m, mul(w, 0.125)).data,
                                      mul(matmul(m, w), 0.125).data)

    def test_enlarging_addend_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4, 2\).*\(4, 2\)"):
            matmul(Tensor(np.ones((4, 5))), Tensor(np.ones((5, 2))),
                   Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ShapeError, match=r"\(3,\).*\(4, 2\)"):
            matmul(Tensor(np.ones((4, 5))), Tensor(np.ones((5, 2))),
                   Tensor(np.ones(3)))

    def test_addends_record_nothing_without_grad(self):
        rng = np.random.default_rng(16)
        with Tape() as tape:
            out = matmul(Tensor(rng.standard_normal((4, 5))),
                         Tensor(rng.standard_normal((5, 2))),
                         Tensor(rng.standard_normal(2)))
        assert tape.nodes == []
        assert not out.requires_grad


def graph_conv_inputs(rng, batch=3, k=5, c_in=4, c_out=6):
    """x, w, b, the additive support of a random graph with self-loops,
    and edge logits on it, shaped as a SemGConv uses them."""
    x = rng.standard_normal((batch, k, c_in))
    w = rng.standard_normal((2, c_in, c_out))
    b = rng.standard_normal(c_out)
    adj = rng.random((k, k)) < 0.5
    adj = adj | adj.T | np.eye(k, dtype=bool)
    return x, w, b, mask_logit_bias(adj), rng.standard_normal((k, k))


def chain_edge_weights(mask, support, g_self=None, g_neigh=None):
    """A SemGConv's self and neighbour aggregations as the chain of single
    ops formed them (add, softmax, two masking products), and, handed
    their gradients, the logits' gradient that chain's backward formed."""
    k = mask.shape[0]
    m = Tensor(mask, requires_grad=True)
    with Tape() as tape:
        s = softmax_lastdim(add(m, support))
        aggs = (mul(s, np.eye(k)), mul(s, 1.0 - np.eye(k)))
        if g_self is not None:
            # a stand-in for the conv node, which handed each aggregation
            # its gradient
            out = autodiff._maybe_record("matmul", aggs, np.zeros(()),
                                         lambda g: (g_self.copy(),
                                                    g_neigh.copy()))
            tape.backward(out)
    return aggs[0].data, aggs[1].data, m.grad


def arrays_held_by(fn, seen=None):
    """Every array reachable from a closure's cells, nested closures and
    lists included."""
    seen = set() if seen is None else seen
    found = []
    for cell in fn.__closure__ or ():
        stack = [cell.cell_contents]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                found.append(obj)
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                found += arrays_held_by(obj, seen)
    return found


class TestGraphConv:
    def test_matches_the_composition_it_replaces(self):
        # the SemGConv form before graph_conv: the edge-weight chain, then
        # two products, the self weight as row sums of the diagonal
        # aggregation, one addend each
        rng = np.random.default_rng(30)
        x, w, b, support, mask = graph_conv_inputs(rng)
        probe = Tensor(rng.standard_normal((3, 5, 6)))
        k = mask.shape[0]
        row_sums = Tensor(np.ones((k, 1)))

        def old(x, w0, w1, b, mask):
            s = softmax_lastdim(add(mask, support))
            a_self, a_neigh = mul(s, np.eye(k)), mul(s, 1.0 - np.eye(k))
            self_weight = matmul(a_self, row_sums)
            return matmul(a_neigh, matmul(x, w1),
                          mul(matmul(x, w0), self_weight), b)

        def new(x, w, b, mask):
            return graph_conv(x, w, b, support, mask)

        np.testing.assert_allclose(new(*map(Tensor, (x, w, b, mask))).data,
                                   old(*map(Tensor, (x, w[0], w[1], b,
                                                     mask))).data,
                                   rtol=1e-12, atol=0)
        gx, gw0, gw1, gb, gmask = backward_of(
            lambda *t: tensor_sum(mul(old(*t), probe)), x, w[0], w[1], b, mask)
        nx, nw, nb, nmask = backward_of(
            lambda *t: tensor_sum(mul(new(*t), probe)), x, w, b, mask)
        for got, want in ((nx, gx), (nw, np.stack([gw0, gw1])), (nb, gb),
                          (nmask, gmask)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("leading", [(3,), (), (2, 3)])
    def test_every_input_against_oracle(self, leading):
        # the edge logits with their support, and a full fixed propagation
        # with a 2-D weight
        rng = np.random.default_rng(31)
        _, w, b, support, mask = graph_conv_inputs(rng)
        x = rng.standard_normal(leading + (5, 4))
        a_full = rng.random((5, 5))
        probe = rng.standard_normal(leading + (5, 6))
        for inputs, a in (((x, w, b, mask), support), ((x, w[0], b), a_full)):
            tensors = [Tensor(v) for v in inputs]
            err = grad_check(lambda *t: graph_conv(*t[:3], a, *t[3:]), tensors,
                             probe)
            assert err < 1e-6

    def test_input_alone_against_oracle(self):
        rng = np.random.default_rng(32)
        x, w, b, support, mask = graph_conv_inputs(rng)
        x = Tensor(x)
        rest = [Tensor(v) for v in (w, b)]
        logits = Tensor(mask)
        probe = rng.standard_normal((3, 5, 6))
        err = grad_check(lambda x: graph_conv(x, *rest, support, logits), [x],
                         probe)
        assert err < 1e-6
        assert not any(t.requires_grad for t in (*rest, logits))

    # the shapes of the graph arguments: a propagation, or a support and
    # its edge logits
    @pytest.mark.parametrize("w_shape, agg_shapes, b_shape", [
        ((2, 4, 6), [(5, 5), (5, 4)], (6,)),
        ((2, 4, 6), [(5, 5), (4, 4)], (6,)),
        ((3, 4, 6), [(5, 5), (5, 5)], (6,)),
        ((2, 3, 6), [(5, 5), (5, 5)], (6,)),
        ((8, 6), [(5, 5), (5, 5)], (6,)),
        ((2, 4, 6), [(5, 5), (5, 5)], (5,)),
        ((0, 4, 6), [(5, 5)], (6,)),
        ((4, 6), [(4, 5)], (6,)),
    ])
    def test_mismatched_shapes_raise(self, w_shape, agg_shapes, b_shape):
        with pytest.raises(ShapeError):
            graph_conv(Tensor(np.ones((3, 5, 4))), Tensor(np.ones(w_shape)),
                       Tensor(np.ones(b_shape)),
                       *(Tensor(np.ones(s)) for s in agg_shapes))

    def test_one_matmul_node_that_keeps_only_its_output(self):
        rng = np.random.default_rng(33)
        x, w, b, support, mask = graph_conv_inputs(rng)
        a_full = rng.random((5, 5))
        g = rng.standard_normal((3, 5, 6))
        # edge logits, and a fixed propagation with a 2-D weight
        for inputs, a in (((x, w, b, mask), support), ((x, w[1], b), a_full)):
            tensors = [Tensor(v, requires_grad=True) for v in inputs]
            with Tape() as tape:
                out = graph_conv(*tensors[:3], a, *tensors[3:])
            (node,) = tape.nodes
            assert node.op == "matmul" and node.output is out
            assert node.inputs == tuple(tensors)
            held = arrays_held_by(node.vjp)
            assert held
            # views of the inputs and (K, K) edge weights, nothing the
            # size of an activation
            for arr in held:
                assert arr.shape == (5, 5) or any(
                    np.shares_memory(arr, t.data) for t in tensors)
            gx, gw, *_ = node.vjp(g.copy())
            assert gx.flags.owndata and gw.flags.owndata
            assert gw.shape == tensors[1].shape

    @pytest.mark.parametrize("c_in, c_out", [(4, 6), (32, 24), (128, 128)])
    def test_vjp_matches_the_side_by_side_gemms_bitwise(self, c_in, c_out,
                                                        monkeypatch):
        # the vjp forms gw and g @ w_flat.T one aggregation at a time:
        # row and column blocks of the GEMMs over the (N, R*C_in)
        # side-by-side operand, so the bits are those GEMMs'.  Batch 20
        # takes the second aggregation's input gradient in two full
        # batch-row chunks and a partial one.  The edge weights and the
        # logits' gradient are the edge-weight chain's, at either dtype
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(autodiff, "DTYPE", dtype)
            rng = np.random.default_rng(36)
            batch = 20
            x, w, b, support, mask = (
                Tensor(v).data for v in graph_conv_inputs(rng, batch, 16, c_in,
                                                          c_out))
            g = Tensor(rng.standard_normal((batch, 16, c_out))).data
            tensors = [Tensor(v, requires_grad=True) for v in (x, w, b, mask)]
            with Tape() as tape:
                out = graph_conv(*tensors[:3], support, tensors[3])
            gx, gw, _, gmask = tape.nodes[0].vjp(g.copy())
            a_self, a_neigh, _ = chain_edge_weights(mask, support)
            g2 = g.reshape(-1, c_out)
            z = np.concatenate([a_self @ x, a_neigh @ x], axis=-1)
            gz = (g2 @ w.reshape(2 * c_in, c_out).T).reshape(batch, 16,
                                                             2 * c_in)
            parts = gz[..., :c_in], gz[..., c_in:]
            want_gx = np.matmul(a_self.T, parts[0])
            want_gx += np.matmul(a_neigh.T, parts[1])
            *_, want_gmask = chain_edge_weights(
                mask, support,
                np.matmul(parts[0], x.swapaxes(-1, -2)).sum(axis=0),
                np.matmul(parts[1], x.swapaxes(-1, -2)).sum(axis=0))
            want = {
                "out": (z.reshape(-1, 2 * c_in) @ w.reshape(2 * c_in, c_out)
                        + b).reshape(out.shape),
                "gw": (z.reshape(-1, 2 * c_in).T @ g2).reshape(w.shape),
                "gx": want_gx,
                "gmask": want_gmask,
            }
            for name, got in (("out", out.data), ("gw", gw), ("gx", gx),
                              ("gmask", gmask)):
                assert got.dtype == dtype, name
                assert got.tobytes() == want[name].tobytes(), name

    def test_vjp_holds_one_scratch_beside_the_input_gradient(self):
        # beyond the gradients it returns, the vjp holds one (N, C_in)
        # scratch; the second aggregation's A_r^T gz_r goes into the input
        # gradient a few batch rows at a time, so a full-size temporary
        # for it (one activation) would break this bound
        rng = np.random.default_rng(37)
        x, w, b, support, mask = graph_conv_inputs(rng, 32, 16, 64, 64)
        tensors = [Tensor(v, requires_grad=i < 3)
                   for i, v in enumerate((x, w, b, mask))]
        with Tape() as tape:
            graph_conv(*tensors[:3], support, tensors[3])
        g = rng.standard_normal((32, 16, 64))
        tracemalloc.start()
        try:
            grads = tape.nodes[0].vjp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        act = x.nbytes
        assert act == 256 << 10
        # the constant logits get their gradient too: Tape.backward, not
        # the vjp, drops it
        returned = sum(grad.nbytes for grad in grads)
        assert returned == act + w.nbytes + b.nbytes + mask.nbytes
        assert peak <= returned + act + act // 2

    def test_empty_support_is_an_error(self):
        rng = np.random.default_rng(38)
        x, w, b, support, mask = graph_conv_inputs(rng)
        support[2] = -np.inf
        with pytest.raises(AutodiffError, match="empty support"):
            graph_conv(x, w, b, support, mask)


class TestAdd:
    def test_several_terms_add_left_to_right(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.standard_normal(s) for s in ((3, 4, 1), (3, 1, 5), (1,)))
        out = add(Tensor(a), Tensor(b), Tensor(c), 0.25)
        np.testing.assert_array_equal(out.data, ((a + b) + c) + 0.25)

    def test_several_terms_one_node_against_oracle(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((3, 4, 1)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 1, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal(1), requires_grad=True)
        probe = rng.standard_normal((3, 4, 5))
        with Tape() as tape:
            add(a, b, c)
        assert [node.op for node in tape.nodes] == ["add"]
        err = grad_check(lambda a, b, c: add(a, b, c), [a, b, c], probe)
        assert err < 1e-6

    def test_shape_mismatch_names_every_shape(self):
        with pytest.raises(ShapeError, match=r"\(2,\) vs \(2,\) vs \(3,\)"):
            add(Tensor(np.ones(2)), Tensor(np.ones(2)), Tensor(np.ones(3)))


class TestMul:
    @pytest.mark.parametrize("shape, c", [((3, 4), 3.0), ((3, 4), -2.5),
                                          ((3, 4), 0.125), ((), 1.0 / 64)])
    def test_constant_factor_scales_forward_and_backward_exactly(self, shape,
                                                                  c):
        # a constant's gradient is not formed, and a same-shape operand
        # takes g scaled in place: both sides are one rounding of x * c
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        g = rng.standard_normal(shape)
        with Tape() as tape:
            out = mul(x, c)
            tape.backward(out, grad=g)
        np.testing.assert_array_equal(out.data, x.data * c)
        np.testing.assert_array_equal(x.grad, g * c)


def probe_layer(part):
    """A non-local layer over one pair of nodes and two channels (E = 1)
    whose channel 0 shows one part of :func:`non_local`: for ``"relu"``
    each affinity is its node's channel 0 and the output there is ``x +
    relu(x)``; for ``"pair_max"`` every affinity is 1 and the output there
    is ``x`` plus the pair's max.  Every other weight is 0."""
    layer = NonLocalBlock(2, ((0, 1),), 2, np.random.default_rng(0))
    for _, p in layer.named_parameters():
        p.data[...] = 0.0
    layer.wx.data[...] = [[1.0, 0.0]]
    if part == "relu":
        layer.theta_w.data[...] = [[1.0], [0.0]]
        layer.wf_q.data[...] = 1.0
        layer.g_b.data[...] = 1.0  # every value is 1
    else:
        layer.wf_b.data[...] = 1.0
        layer.g_w.data[...] = [[1.0], [0.0]]  # the value is the pooled node
    return layer


def probe(part, node0, node1):
    """Channel 0 of a probe layer's output minus its input at node 0, and
    the gradient of the output's sum at both nodes beyond the residual's
    1, for one batch row per entry of ``node0`` and ``node1``."""
    x = np.zeros((len(node0), 2, 2))
    x[:, 0, 0], x[:, 1, 0] = node0, node1
    x = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = probe_layer(part)(x, True)
        tape.backward(out, np.ones_like(out.data))
    return out.data[:, 0, 0] - x.data[:, 0, 0], x.grad[:, :, 0] - 1.0


class TestRelu:
    """The ReLU on the non-local affinity (:func:`non_local`)."""

    def test_sign_definition(self):
        f, _ = probe("relu", [-1.0, 0.0, 2.0], [0.0] * 3)
        np.testing.assert_array_equal(f, [0.0, 0.0, 2.0])

    def test_identity_on_positives(self):
        x = np.array([0.5, 1.0, 7.25])
        f, _ = probe("relu", x, [0.0] * 3)
        np.testing.assert_array_equal(f, x)

    def test_gradient(self):
        _, gx = probe("relu", [-1.0, 2.0], [0.0] * 2)
        np.testing.assert_array_equal(gx[:, 0], [0.0, 1.0])

    def test_subgradient_at_zero_is_zero(self):
        _, gx = probe("relu", [0.0], [0.0])
        np.testing.assert_array_equal(gx, [[0.0, 0.0]])


class TestSoftmax:
    """The masked softmax that forms a SemGConv's edge weights
    (:func:`edge_softmax`)."""

    def test_equal_logits_uniform(self):
        out = edge_softmax(np.zeros(3), 0.0)
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-12)

    def test_saturating_mask(self):
        out = edge_softmax(np.zeros(2), np.array([0.0, -np.inf]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_hand_computed(self):
        out = edge_softmax(np.array([1.0, 2.0]), 0.0)
        np.testing.assert_allclose(out, [0.26894, 0.73106], atol=1e-5)

    def test_empty_support_is_an_error(self):
        with pytest.raises(AutodiffError, match="empty support"):
            edge_softmax(np.zeros(2), np.full(2, -np.inf))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_stochastic_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        out = edge_softmax(rng.standard_normal((4, 7)) * 10, 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert ((out >= 0) & (out <= 1)).all()


def reference_batch_norm(x, gamma, beta, mean, var, eps, momentum, training,
                         g):
    """The textbook batch norm through xhat followed by ReLU, with the
    three-term backward of the masked gradient: output, gradients for x,
    gamma and beta (None in eval mode, which has no backward), and the
    running statistics after the call."""
    if training:
        mu = x.mean(axis=(0, 1))
        v = np.mean((x - mu) * (x - mu), axis=(0, 1))
        mean = (1.0 - momentum) * mean + momentum * mu
        var = (1.0 - momentum) * var + momentum * v
    else:
        mu, v = mean, var
    inv = 1.0 / np.sqrt(v + eps)
    xhat = (x - mu) * inv
    pre = gamma * xhat + beta
    out = np.maximum(pre, 0.0)
    if not training:
        return out, None, None, None, mean, var
    g = g * (pre > 0)  # relu's subgradient at 0 is 0
    ggamma = (g * xhat).sum(axis=(0, 1))
    gbeta = g.sum(axis=(0, 1))
    gx = gamma * inv * (g - g.mean(axis=(0, 1))
                        - xhat * (g * xhat).mean(axis=(0, 1)))
    return out, gx, ggamma, gbeta, mean, var


def perturbed_state(rng, c):
    state = BatchNormState(c)
    state.running_mean[:] = rng.standard_normal(c)
    state.running_var[:] = rng.uniform(0.5, 2.0, c)
    return state


def batch_norm_on(x, gamma, beta, state, training):
    """Batch norm and its ReLU applied to ``x``: in train mode the
    ``batch_norm`` op itself, in eval mode the conv → batch norm → ReLU
    stage of an identity conv, whose product hands the batch norm's scale
    and shift ``x`` exactly.  The eval stage has no backward, so it runs
    outside a tape."""
    if training:
        return batch_norm(x, gamma, beta, state)
    k, c = x.shape[-2:]
    conv = VanillaGConv(c, c, np.eye(k), np.random.default_rng(0))
    conv.w.data = np.eye(c)
    bn = BatchNormNodes(c)
    bn.gamma, bn.beta, bn.state = gamma, beta, state
    return conv_bn_relu(conv, bn, x)


class TestBatchNorm:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_formula(self, training, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(3.0 + 2.0 * rng.standard_normal((4, 5, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        state = perturbed_state(rng, 6)
        probe = rng.standard_normal((4, 5, 6))
        expected = reference_batch_norm(
            x.data, gamma.data, beta.data, state.running_mean.copy(),
            state.running_var.copy(), BN_EPS, BN_MOMENTUM, training,
            probe)
        if training:
            with Tape() as tape:
                out = batch_norm(x, gamma, beta, state)
                tape.backward(out, grad=probe)
            assert [node.op for node in tape.nodes] == ["batch_norm"]
        else:
            out = batch_norm_on(x, gamma, beta, state, training)
        actual = (out.data, x.grad, gamma.grad, beta.grad, state.running_mean,
                  state.running_var)
        for got, want in zip(actual, expected):
            if want is None:  # eval mode: no gradient
                assert got is None
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_skip_is_added_after_the_relu(self, seed):
        # the block's skip closes the node: the ReLU mask is the batch
        # norm's own, and the skip takes the output gradient unmasked
        rng = np.random.default_rng([seed, 7])
        x = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        skip = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
        state = perturbed_state(rng, 6)
        probe = rng.standard_normal((4, 5, 6))
        out_ref, gx, ggamma, gbeta, mean, var = reference_batch_norm(
            x.data, gamma.data, beta.data, state.running_mean.copy(),
            state.running_var.copy(), BN_EPS, BN_MOMENTUM, True, probe)
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, state, skip)
            tape.backward(out, grad=probe)
        (node,) = tape.nodes
        assert node.op == "batch_norm" and node.inputs[3] is skip
        actual = (out.data, x.grad, gamma.grad, beta.grad, state.running_mean,
                  state.running_var, skip.grad)
        expected = (out_ref + skip.data, gx, ggamma, gbeta, mean, var, probe)
        for got, want in zip(actual, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        # the same node with no skip, plus the skip, is the same bits
        alone = batch_norm(x, gamma, beta, BatchNormState(6))
        np.testing.assert_array_equal(out.data, alone.data + skip.data)

    def test_skip_must_match_the_input(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError, match="skip"):
            batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       BatchNormState(4), Tensor(np.ones((2, 3, 1))))

    def test_vjp_takes_a_gradient_of_any_layout(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(5), requires_grad=True)
        beta = Tensor(rng.standard_normal(5), requires_grad=True)
        state = perturbed_state(rng, 5)
        probe = rng.standard_normal((3, 4, 5))
        with Tape() as tape:
            batch_norm(x, gamma, beta, state)
        node = tape.nodes[-1]
        c_order = node.vjp(probe.copy())
        f_order = node.vjp(np.asfortranarray(probe))
        for a, b in zip(c_order, f_order):
            np.testing.assert_array_equal(a, b)

    def test_float32_channels_of_zero_and_tiny_variance_stay_finite(
            self, monkeypatch):
        # BN_EPS (1e-8) is far below float32's resolution of a variance
        # near 1: a constant channel (its mean is exact, so its variance
        # is exactly 0) and one of variance 1e-6 must still give finite
        # outputs and gradients
        monkeypatch.setattr(autodiff, "DTYPE", np.float32)
        rng = np.random.default_rng(4)
        data = rng.standard_normal((8, 16, 3))
        data[..., 0] = 2.0
        data[..., 1] = 5.0 + 1e-3 * data[..., 1]
        x = Tensor(data, requires_grad=True)
        gamma = Tensor(np.array([1.5, 1.0, 0.5]), requires_grad=True)
        beta = Tensor(np.array([0.1, 0.0, 0.2]), requires_grad=True)
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, BatchNormState(3))
            tape.backward(out, grad=rng.standard_normal((8, 16, 3)))
        for a in (out.data, x.grad, gamma.grad, beta.grad):
            assert a.dtype == np.float32
            assert np.isfinite(a).all()
        # the tiny-variance channel is normalized, not flattened by BN_EPS
        assert out.data[..., 1].max() > 1.0

    def test_train_mode_hand_value(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1), requires_grad=True)
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        out = batch_norm(x, gamma, beta, BatchNormState(1))
        np.testing.assert_allclose(out.data.ravel(), [0.0, 1.0], atol=1e-6)

    def test_eval_identity_stats(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4))
        out = batch_norm_on(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                            BatchNormState(4), training=False)
        np.testing.assert_allclose(out.data, np.maximum(x, 0.0), atol=1e-6)

    def test_output_of_exactly_zero_passes_no_gradient(self):
        # the middle row is the batch mean, so its output is exactly 0
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1), requires_grad=True)
        gamma = Tensor(np.array([1.5]), requires_grad=True)
        beta = Tensor(np.zeros(1), requires_grad=True)
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, BatchNormState(1))
            tape.backward(out, grad=np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        assert out.data[1, 0, 0] == 0.0
        np.testing.assert_array_equal(x.grad, np.zeros((3, 1, 1)))
        np.testing.assert_array_equal(gamma.grad, [0.0])
        np.testing.assert_array_equal(beta.grad, [0.0])

    def test_eval_mode_zeroes_negative_pre_activations(self):
        x = Tensor(np.array([-2.0, 3.0]).reshape(2, 1, 1))
        inv = 1.0 / np.sqrt(1.0 + BN_EPS)
        out = batch_norm_on(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                            BatchNormState(1), training=False)
        np.testing.assert_allclose(out.data.ravel(), [0.0, 3.0 * inv],
                                   rtol=1e-15)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        state = BatchNormState(4)
        probe = rng.standard_normal((2, 3, 4))

        def f(x, gamma, beta):
            return batch_norm(x, gamma, beta, state)

        assert grad_check(f, [x, gamma, beta], probe) < 1e-4

    def test_train_needs_two_rows(self):
        x = Tensor(np.zeros((1, 1, 4)))
        with pytest.raises(ShapeError):
            batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       BatchNormState(4))

    def test_running_stats_update(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        state = BatchNormState(1)
        batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state)
        np.testing.assert_allclose(state.running_mean, [0.2])  # 0.9*0 + 0.1*2
        np.testing.assert_allclose(state.running_var, [1.0])   # 0.9*1 + 0.1*1


def prologue_case(rng, r, mask_grad, batch=6, k=5, c=4, c_out=3):
    """x, w, b, gamma and beta of a batch norm → ReLU → conv stage, every
    one a tensor that requires a gradient, the stage's graph arguments (a
    fixed propagation when ``r`` is 1; a support and edge logits, which
    require a gradient with ``mask_grad``, when it is 2), and a state off
    its initial statistics."""
    x, w, b, support, mask = graph_conv_inputs(rng, batch, k, c, c_out)
    graph = ((rng.random((k, k)),) if r == 1
             else (support, Tensor(mask, requires_grad=mask_grad)))
    tensors = [Tensor(v, requires_grad=True) for v in (
        3.0 + 2.0 * x, w[0] if r == 1 else w, b, rng.standard_normal(c),
        rng.standard_normal(c))]
    return tensors, graph, perturbed_state(rng, c)


class TestBatchNormPrologue:
    # graph_conv's norm: a batch norm → ReLU → conv stage as one node that
    # keeps conv's output alone and recomputes the normalized input

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("r, mask_grad", [(1, False), (2, False),
                                              (2, True)])
    def test_matches_batch_norm_then_graph_conv_bitwise(self, dtype, r,
                                                        mask_grad,
                                                        monkeypatch):
        monkeypatch.setattr(autodiff, "DTYPE", dtype)
        results = []
        for fused in (False, True):
            rng = np.random.default_rng([40, r])
            (x, w, b, gamma, beta), graph, state = prologue_case(
                rng, r, mask_grad)
            seed = rng.standard_normal((6, 5, 3))
            with Tape() as tape:
                if fused:
                    out = graph_conv(x, w, b, *graph,
                                     norm=(gamma, beta, state))
                    (node,) = tape.nodes
                    assert node.op == "matmul"
                    assert node.inputs == (x, w, b, *graph[1:], gamma, beta)
                else:
                    out = graph_conv(batch_norm(x, gamma, beta, state), w, b,
                                     *graph)
                tape.backward(out, seed)
            results.append([out.data, x.grad, gamma.grad, beta.grad, w.grad,
                            b.grad, *(t.grad for t in graph[1:]),
                            state.running_mean, state.running_var])
        chain, fused = results
        for want, got in zip(chain, fused):
            if want is None:  # constant edge logits
                assert got is None
                continue
            assert got.dtype == want.dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert chain[0].dtype == dtype

    def test_needs_two_rows_and_takes_no_scale(self):
        rng = np.random.default_rng(42)
        (x, w, b, gamma, beta), graph, state = prologue_case(rng, 1, False)
        with pytest.raises(ShapeError, match="batch\\*nodes"):
            graph_conv(Tensor(x.data[:1, :1]), w, b, np.ones((1, 1)),
                       norm=(gamma, beta, state))
        with pytest.raises(ShapeError, match="parameter shapes"):
            graph_conv(x, w, b, *graph, norm=(beta, Tensor(np.ones(3)), state))
        # the conv is train mode only: an eval stage's scale is applied
        # in layers.conv_bn_relu
        with pytest.raises(TypeError, match="scale"):
            graph_conv(x, w, b, *graph, norm=(gamma, beta, state),
                       scale=np.ones(3))

    # A taped stage at batch 32, 32 channels keeps its output (128 KiB);
    # the per-channel mean and 1/sigma, the node, its output tensor and
    # the vjp's closure take well under this slack.  Keeping the
    # normalized input on top would exceed it by 120 KiB.
    TAPE_SLACK_BYTES = 8 << 10

    def test_taped_stage_keeps_only_its_output(self):
        rng = np.random.default_rng(43)
        x, w, b, support, mask = graph_conv_inputs(rng, 32, 16, 32, 32)
        x, w, b, mask = (Tensor(v, requires_grad=True)
                         for v in (x, w, b, mask))
        gamma, beta = (Tensor(rng.standard_normal(32), requires_grad=True)
                       for _ in range(2))
        state = BatchNormState(32)
        tape = Tape()
        tracemalloc.start()
        try:
            with tape:
                out = graph_conv(x, w, b, support, mask,
                                 norm=(gamma, beta, state))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == 128 << 10
        assert kept <= out.data.nbytes + self.TAPE_SLACK_BYTES
        assert len(tape.nodes) == 1


class TestStructural:
    # The pair max that :func:`non_local` pools keys and values with.  In
    # the probe the max's gradient is 2, the value term of both nodes, and
    # it reaches only the node the max took.
    def test_max_over_set_strict_max(self):
        pooled, gx = probe("pair_max", [3.0, 10.0], [5.0, 4.0])
        np.testing.assert_array_equal(pooled, [5.0, 10.0])
        np.testing.assert_array_equal(gx, [[0.0, 2.0], [2.0, 0.0]])

    def test_max_over_set_tie_goes_to_lowest_index(self):
        _, gx = probe("pair_max", [7.0], [7.0])
        np.testing.assert_array_equal(gx, [[2.0, 0.0]])

    @pytest.mark.parametrize("groups", [
        [(0, 1), (1, 2)],        # overlapping pairs
        [(0, 1), (2,)],          # a single-node group
        [(0, 1), (2, 3, 4)],     # groups of unequal size
        [(0, 1, 2), (3, 4, 5)],  # equal size, but not pairs
        [(2, 2)],                # a pair that repeats its node
        [],                      # no groups at all
    ])
    def test_max_over_set_rejects_non_disjoint_pairs(self, groups):
        # the layer checks its pairing once, when it is built
        with pytest.raises(ShapeError, match="disjoint pairs"):
            NonLocalBlock(2, groups, 6, np.random.default_rng(0))

    def test_max_over_set_with_ties_matches_the_selecting_form(self):
        # small integers force ties, signed zeros among them
        rng = np.random.default_rng(17)
        first, second = rng.integers(-2, 3, size=(2, 4096)).astype(np.float64)
        pooled, gx = probe("pair_max", first, second)
        first_wins = first >= second
        assert (first == second).mean() > 0.1
        # == treats -0.0 and 0.0 alike
        np.testing.assert_array_equal(pooled, np.where(first_wins, first, second))
        np.testing.assert_array_equal(gx[:, 0], np.where(first_wins, 2.0, 0.0))
        np.testing.assert_array_equal(gx[:, 1], np.where(first_wins, 0.0, 2.0))

    def test_max_over_set_rejects_out_of_range(self):
        with pytest.raises(ShapeError, match="disjoint pairs"):
            NonLocalBlock(2, [(0, 1), (2, 4)], 4, np.random.default_rng(0))

    def test_input_must_have_two_nodes_per_pair(self):
        layer = NonLocalBlock(2, ((0, 1), (2, 3)), 4, np.random.default_rng(0))
        weights = [p for _, p in layer.named_parameters()]
        for k in (2, 6):
            with pytest.raises(ShapeError, match=r"\(B, 4, C\)"):
                non_local(Tensor(np.zeros((1, k, 2))), layer.pairs, *weights)

    def test_sum_gradient_is_ones(self):
        (gx,) = backward_of(tensor_sum, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(gx, np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_primitives_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        probe = rng.standard_normal((2, 4, 3))

        def f(x, y, w):
            h = add(mul(mul(x, x), y), mul(add(x, mul(y, -1.0)), 0.5))
            # a selection matrix that drops channel 0 leaves it no gradient,
            # and one that repeats channel 1 sums its gradient
            select = np.eye(6)[:, [5, 1, 2, 3, 4, 1]]
            h = matmul(h, select)
            h = matmul(h, w)                                # (2, 4, 3)
            h = mul(h, Tensor(probe))
            p = softmax_lastdim(h)
            return tensor_sum(add(tensor_sum(p), tensor_sum(add(h, -0.5))))

        assert grad_check(f, [x, y, w]) < 1e-4


class TestGradCheckOracle:
    def test_quadratic_closed_form(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            tape.backward(tensor_sum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        x.grad = None
        assert grad_check(lambda x: tensor_sum(mul(x, x)), [x]) < 1e-6

    def test_linear_is_exact(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        err = grad_check(lambda x: tensor_sum(mul(x, 3.0)), [x])
        assert err < 1e-9

    def test_detects_injected_wrong_backward(self):
        from semgcn import autodiff as ad

        def broken_square(x):
            out_data = x.data * x.data

            def vjp(g):
                return (g,)  # wrong on purpose: should be 2 * x * g

            return ad._maybe_record("broken_square", (x,), out_data, vjp)

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda x: tensor_sum(broken_square(x)), [x])
        assert err > 1e-2

    def test_probe_form_passes_a_conv_with_edge_logits(self):
        rng = np.random.default_rng(18)
        x, w, b, support, mask = graph_conv_inputs(rng)
        tensors = [Tensor(v) for v in (x, w, b, mask)]
        err = grad_check(lambda x, w, b, mask: graph_conv(x, w, b, support,
                                                          mask),
                         tensors, rng.standard_normal((3, 5, 6)))
        assert err < 1e-6

    def test_probe_of_another_shape_raises(self):
        x = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(ShapeError, match="seed gradient shape"):
            grad_check(lambda x: mul(x, 3.0), [x], np.ones(3))

    def test_probe_form_detects_injected_wrong_backward(self):
        from semgcn import autodiff as ad

        def broken_square(x):
            def vjp(g):
                return (g,)  # wrong on purpose: should be 2 * x * g

            return ad._maybe_record("broken_square", (x,), x.data * x.data,
                                    vjp)

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(broken_square, [x], np.array([0.5, -1.5]))
        assert err > 1e-2

    def test_probe_form_detects_a_softmax_backward_without_its_inner_term(
            self, monkeypatch):
        # the logits' gradient of a conv with edge logits, with the
        # softmax's backward missing the row sum it subtracts
        rng = np.random.default_rng(19)
        x, w, b, support, mask = graph_conv_inputs(rng)
        x, w, b, mask = (Tensor(v) for v in (x, w, b, mask))
        probe = rng.standard_normal((3, 5, 6))

        def check():
            return grad_check(lambda mask: graph_conv(x, w, b, support, mask),
                              [mask], probe)

        assert check() < 1e-6
        monkeypatch.setattr(autodiff, "_softmax_backward", lambda s, g: s * g)
        assert check() > 1e-2

    def test_computes_in_double_whatever_the_compute_dtype(self, monkeypatch):
        from semgcn import autodiff as ad

        monkeypatch.setattr(ad, "DTYPE", np.float32)
        single = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(AutodiffError, match="oracle_precision"):
            grad_check(lambda x: tensor_sum(mul(x, x)), [single])
        seen = []

        def f(x):
            out = mul(x, Tensor(np.array([0.5, 3.0])))
            seen.append(out.data.dtype)
            return tensor_sum(out)

        with ad.oracle_precision():
            x = Tensor(np.array([1.0, 2.0]))
        assert ad.DTYPE is np.float32  # restored on leaving the block
        assert grad_check(f, [x]) < 1e-9
        assert set(seen) == {np.dtype(ad.ORACLE_DTYPE)}
        assert np.dtype(ad.ORACLE_DTYPE) == np.float64


def contract_case(name, rng):
    """The input arrays of one multi-input node of the network's kind,
    and the function of their tensors that records it."""
    if name.startswith("non_local"):
        # with norm, gamma and beta follow the weights, then the skip
        b, k, c, e = 3, 4, 5, 2
        pairs = np.array([[0, 1], [2, 3]])
        shapes = [(b, k, c), (c, e), (e,), (c, e), (e,), (c, e), (e,),
                  (e, 1), (e, 1), (1,), (e, c)]
        shapes += {"non_local": [], "non_local_norm": [(c,), (c,)],
                   "non_local_norm_skip": [(c,), (c,), (b, k, c)]}[name]

        def f(x, *rest):
            weights, norm, skip = rest[:10], rest[10:12], rest[12:]
            if not norm:
                return non_local(x, pairs, *weights)
            return non_local(x, pairs, *weights,
                             norm=(*norm, BatchNormState(c)),
                             skip=skip[0] if skip else None)

        return [rng.standard_normal(s) for s in shapes], f
    if name == "batch_norm_skip":
        return ([rng.standard_normal(s) for s in ((3, 5, 4), (4,), (4,),
                                                  (3, 5, 4))],
                lambda x, gamma, beta, skip: batch_norm(
                    x, gamma, beta, BatchNormState(4), skip))
    x, w, b, support, mask = graph_conv_inputs(rng)
    if name == "graph_conv":
        return [x, w, b, mask], lambda *t: graph_conv(*t[:3], support, t[3])
    return ([x, w, b, mask, *rng.standard_normal((2, 4))],
            lambda *t: graph_conv(*t[:3], support, t[3],
                                  norm=(*t[4:], BatchNormState(4))))


class TestGradientContract:
    """A vjp returns a gradient for every input, each in a buffer of its
    own, and Tape.backward drops those of the constant inputs."""

    @staticmethod
    def run(case, constant=None):
        """The inputs of one backward pass with input ``constant`` (an
        index) constant, and the gradients its node's vjp returned."""
        rng = np.random.default_rng(50)
        arrays, f = contract_case(case, rng)
        tensors = [Tensor(v, requires_grad=i != constant)
                   for i, v in enumerate(arrays)]
        returned = []
        with Tape() as tape:
            out = f(*tensors)
            (node,) = tape.nodes
            vjp = node.vjp
            node.vjp = lambda g: returned.append(vjp(g)) or returned[0]
            tape.backward(out, rng.standard_normal(out.shape))
        return tensors, returned[0]

    @pytest.mark.parametrize("case", ["graph_conv", "graph_conv_norm",
                                      "non_local", "batch_norm_skip",
                                      "non_local_norm",
                                      "non_local_norm_skip"])
    def test_each_input_made_constant_in_turn(self, case):
        tensors, _ = self.run(case)
        want = [t.grad for t in tensors]
        for constant in (None, *range(len(tensors))):
            tensors, grads = self.run(case, constant)
            assert len(grads) == len(tensors)
            assert all(isinstance(grad, np.ndarray) for grad in grads)
            for i, grad in enumerate(grads):
                assert not any(np.shares_memory(grad, other)
                               for other in grads[i + 1:])
            for i, t in enumerate(tensors):
                if i == constant:
                    assert t.grad is None
                else:
                    assert t.grad.tobytes() == want[i].tobytes()


class TestBackwardBuffers:
    """Each vjp may overwrite the output gradient it is handed."""

    @pytest.mark.parametrize("root_op", [
        "scale", "add", "mul", "batch_norm", "graph_conv_norm", "non_local",
        "squared_error", "non_local_norm", "non_local_norm_skip"])
    def test_seed_and_root_grad_are_left_alone(self, root_op):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
        pairs = np.array([[0, 1], [2, 3]])
        nl_weights = [np.full(shape, 0.5) for shape in (
            (4, 2), (2,), (4, 2), (2,), (4, 2), (2,), (2, 1), (2, 1), (1,),
            (2, 4))]
        norm = (np.full(4, 2.0), np.zeros(4), BatchNormState(4))
        ops = {
            "scale": lambda x: mul(x, -3.0),
            "add": lambda x: add(x, x),
            "mul": lambda x: mul(x, x),
            "batch_norm": lambda x: batch_norm(
                x, Tensor(np.full(4, 2.0)), Tensor(np.zeros(4)),
                BatchNormState(4)),
            "graph_conv_norm": lambda x: graph_conv(
                x, np.eye(4), np.zeros(4), np.full((4, 4), 0.25),
                norm=(np.full(4, 2.0), np.zeros(4), BatchNormState(4))),
            # its vjp adds the input's other terms into the residual's g
            "non_local": lambda x: non_local(x, pairs, *nl_weights),
            # ... and then runs the batch norm's backward in that buffer
            "non_local_norm": lambda x: non_local(x, pairs, *nl_weights,
                                                  norm=norm),
            "non_local_norm_skip": lambda x: non_local(
                x, pairs, *nl_weights, norm=norm, skip=np.ones((2, 4, 4))),
            "squared_error": lambda x: squared_error(
                x, np.ones((2, 4, 4)), 0.5, np.eye(3, 4) - np.eye(3, 4, 1),
                np.zeros((2, 3, 4))),
        }
        with Tape() as tape:
            out = ops[root_op](x)
            seed = rng.standard_normal(out.shape)
            kept = seed.copy()
            tape.backward(out, grad=seed)
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_array_equal(out.grad, kept)
        assert x.grad is not seed and x.grad is not out.grad

    def test_seed_is_not_accumulated_into(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seed = np.array([0.5, 3.0])
        with Tape() as tape:
            out = mul(x, -3.0)
            tape.backward(out, grad=seed)
            tape.backward(out, grad=seed)
        np.testing.assert_array_equal(seed, [0.5, 3.0])
        np.testing.assert_array_equal(out.grad, [1.0, 6.0])

    @pytest.mark.parametrize("case", [
        "add_self", "scale_and_add_of_leaf", "scale_and_add_of_node",
        "scale_of_scale", "add_of_two_scales"])
    def test_shared_buffers_against_oracle(self, case):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        probe = Tensor(rng.standard_normal((3, 5)))
        cases = {
            "add_self": lambda x, w: add(x, x),
            # mul by a constant hands back g scaled in place
            "scale_and_add_of_leaf": lambda x, w: add(mul(x, 0.5), x),
            "scale_and_add_of_node": lambda x, w: (
                lambda h: add(mul(h, 0.5), h, h))(mul(x, w)),
            "scale_of_scale": lambda x, w: mul(mul(x, 0.5), -2.5),
            "add_of_two_scales": lambda x, w: (
                lambda h: add(mul(h, 3.0), mul(h, 0.5)))(add(x, mul(w, -1.0))),
        }

        def f(x, w):
            return tensor_sum(mul(cases[case](x, w), probe))

        assert grad_check(f, [x, w]) < 1e-6

    @pytest.mark.parametrize("case", [
        "square", "broadcast_weight", "weight_first", "add_of_mul_and_operand"])
    def test_mul_buffers_against_oracle(self, case):
        # mul scales its output gradient in place when the left operand has
        # the output's shape
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        probe = Tensor(rng.standard_normal((2, 3, 4)))
        cases = {
            "square": lambda x, w: mul(x, x),
            "broadcast_weight": lambda x, w: mul(mul(x, 1.5), w),
            "weight_first": lambda x, w: mul(w, mul(x, 1.5)),
            "add_of_mul_and_operand": lambda x, w: (
                lambda h: add(mul(h, w), h))(mul(x, 1.5)),
        }

        def f(x, w):
            return tensor_sum(mul(cases[case](x, w), probe))

        assert grad_check(f, [x, w]) < 1e-6

    def test_add_of_self_doubles_the_gradient(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seed = np.array([0.5, 3.0])
        with Tape() as tape:
            tape.backward(add(x, x, x), grad=seed)
        np.testing.assert_array_equal(x.grad, 3.0 * seed)

    def test_addend_that_is_also_an_operand_against_oracle(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        probe = Tensor(rng.standard_normal((3, 4, 5)))
        err = grad_check(lambda x, w: tensor_sum(mul(matmul(x, w, x), probe)),
                         [x, w])
        assert err < 1e-6

    def test_full_shape_addend_takes_the_output_gradient(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        t = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        bias = Tensor(rng.standard_normal(2), requires_grad=True)
        g = rng.standard_normal((3, 4, 2))
        with Tape() as tape:
            matmul(x, w, t, bias)
            (node,) = tape.nodes
            ga, gb, gt, gbias = node.vjp(g)
        assert gt is g
        np.testing.assert_array_equal(gbias, g.sum(axis=(0, 1)))


class TestTensorAndTape:
    def test_non_finite_output_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(Tensor([1e308]), Tensor([1e308]))

    def test_gradient_accumulation_linearity(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = rng.standard_normal((2, 4))

        def run_once():
            with Tape() as tape:
                tape.backward(tensor_sum(matmul(Tensor(x), w)))

        run_once()
        single = w.grad.copy()
        run_once()
        np.testing.assert_allclose(w.grad, 2.0 * single, rtol=1e-14)

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 5))

        def run():
            t = Tensor(w, requires_grad=True)
            with Tape() as tape:
                out = softmax_lastdim(matmul(Tensor(x), t))
                loss = tensor_sum(out)
                tape.backward(loss)
            return out.data.copy(), t.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(g1, g2)

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = mul(x, 2.0)
        assert out.grad is None
        assert x.grad is None
