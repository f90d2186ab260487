"""Engine-level tests: primitive semantics, backward passes, the
finite-difference oracle, and tape behavior."""

import numpy as np
import pytest

from semgcn.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    AutodiffError,
    BatchNormState,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    add,
    batch_norm,
    grad_check,
    graph_conv,
    matmul,
    max_over_set,
    mul,
    relu,
    softmax_lastdim,
    tensor_sum,
    transpose,
)
from semgcn.layers import BatchNormNodes, VanillaGConv, conv_bn_relu


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
        (ga, _) = backward_of(lambda a, b: matmul(a, b).sum(),
                              np.eye(2), np.array([[2.0, 3.0], [4.0, 5.0]]))
        np.testing.assert_allclose(ga, [[5.0, 9.0], [5.0, 9.0]])

    def test_gradient_against_oracle(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([[2.0, 3.0], [4.0, 5.0]]), requires_grad=True)
        err = grad_check(lambda a, b: matmul(a, b).sum(), [a, b], eps=1e-5)
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
        err = grad_check(lambda x, w, s: matmul(s, matmul(x, w)).sum(),
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
        probe = Tensor(rng.standard_normal(3))
        err = grad_check(lambda v, w: mul(matmul(v, w), probe).sum(), [v, w])
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
        probe = Tensor(rng.standard_normal(t.shape))
        with Tape() as tape:
            matmul(a, b, t, bias)
        assert [node.op for node in tape.nodes] == ["matmul"]
        err = grad_check(lambda a, b, t, bias: mul(matmul(a, b, t, bias),
                                                   probe).sum(),
                         [a, b, t, bias])
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
    """x, w, b, and a diagonal (self) and an off-diagonal (neighbor)
    aggregation, shaped as a SemGConv uses them."""
    x = rng.standard_normal((batch, k, c_in))
    w = rng.standard_normal((2, c_in, c_out))
    b = rng.standard_normal(c_out)
    s = rng.random((k, k))
    return x, w, b, s * np.eye(k), s * (1.0 - np.eye(k))


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
        # the SemGConv form before graph_conv: two products, the self
        # weight as row sums of the diagonal aggregation, one addend each
        rng = np.random.default_rng(30)
        x, w, b, a_self, a_neigh = graph_conv_inputs(rng)
        probe = Tensor(rng.standard_normal((3, 5, 6)))
        row_sums = Tensor(np.ones((a_self.shape[-1], 1)))

        def old(x, w0, w1, b, a_self, a_neigh):
            self_weight = matmul(a_self, row_sums)
            return matmul(a_neigh, matmul(x, w1),
                          mul(matmul(x, w0), self_weight), b)

        def new(x, w, b, a_self, a_neigh):
            return graph_conv(x, w, b, a_self, a_neigh)

        np.testing.assert_allclose(new(*map(Tensor, (x, w, b, a_self, a_neigh))).data,
                                   old(*map(Tensor, (x, w[0], w[1], b, a_self,
                                                     a_neigh))).data,
                                   rtol=1e-12, atol=0)
        gx, gw0, gw1, gb, gself, gneigh = backward_of(
            lambda *t: mul(old(*t), probe).sum(), x, w[0], w[1], b, a_self,
            a_neigh)
        nx, nw, nb, nself, nneigh = backward_of(
            lambda *t: mul(new(*t), probe).sum(), x, w, b, a_self, a_neigh)
        for got, want in ((nx, gx), (nw, np.stack([gw0, gw1])), (nb, gb),
                          (nneigh, gneigh)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # the old form reads only the diagonal's row sums, so only the
        # diagonal entries of the self gradient share a meaning
        np.testing.assert_allclose(np.diag(nself), np.diag(gself),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("leading", [(3,), (), (2, 3)])
    def test_every_input_against_oracle(self, leading):
        # a full first aggregation: the engine does not rely on a diagonal;
        # with one aggregation the weight is 2-D
        rng = np.random.default_rng(31)
        _, w, b, _, a_neigh = graph_conv_inputs(rng)
        x = rng.standard_normal(leading + (5, 4))
        a_full = rng.random((5, 5))
        probe = Tensor(rng.standard_normal(leading + (5, 6)))
        for inputs in ((x, w, b, a_full, a_neigh), (x, w[0], b, a_full)):
            tensors = [Tensor(v) for v in inputs]
            err = grad_check(lambda *t: mul(graph_conv(*t), probe).sum(),
                             tensors)
            assert err < 1e-6

    def test_input_alone_against_oracle(self):
        rng = np.random.default_rng(32)
        x, *rest = (Tensor(v) for v in graph_conv_inputs(rng))
        probe = Tensor(rng.standard_normal((3, 5, 6)))
        err = grad_check(lambda x: mul(graph_conv(x, *rest), probe).sum(), [x])
        assert err < 1e-6
        assert not any(t.requires_grad for t in rest)

    @pytest.mark.parametrize("w_shape, agg_shapes, b_shape", [
        ((2, 4, 6), [(5, 5), (5, 4)], (6,)),
        ((2, 4, 6), [(5, 5), (4, 4)], (6,)),
        ((3, 4, 6), [(5, 5), (5, 5)], (6,)),
        ((2, 3, 6), [(5, 5), (5, 5)], (6,)),
        ((8, 6), [(5, 5), (5, 5)], (6,)),
        ((2, 4, 6), [(5, 5), (5, 5)], (5,)),
        ((0, 4, 6), [], (6,)),
        ((4, 6), [(5, 5), (5, 5)], (6,)),
    ])
    def test_mismatched_shapes_raise(self, w_shape, agg_shapes, b_shape):
        with pytest.raises(ShapeError):
            graph_conv(Tensor(np.ones((3, 5, 4))), Tensor(np.ones(w_shape)),
                       Tensor(np.ones(b_shape)),
                       *(Tensor(np.ones(s)) for s in agg_shapes))

    def test_one_matmul_node_that_keeps_only_its_output(self):
        rng = np.random.default_rng(33)
        x, w, b, a_self, a_neigh = graph_conv_inputs(rng)
        g = rng.standard_normal((3, 5, 6))
        # two aggregations, and one with a 2-D weight
        for inputs in ((x, w, b, a_self, a_neigh), (x, w[1], b, a_neigh)):
            tensors = [Tensor(v, requires_grad=True) for v in inputs]
            with Tape() as tape:
                out = graph_conv(*tensors)
            (node,) = tape.nodes
            assert node.op == "matmul" and node.output is out
            assert node.inputs == tuple(tensors)
            held = arrays_held_by(node.vjp)
            assert held
            for arr in held:  # views of the inputs, nothing of its own
                assert any(np.shares_memory(arr, t.data) for t in tensors)
            gx, gw, *_ = node.vjp(g.copy())
            assert gx.flags.owndata and gw.flags.owndata
            assert gw.shape == tensors[1].shape


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
        probe = Tensor(rng.standard_normal((3, 4, 5)))
        with Tape() as tape:
            add(a, b, c)
        assert [node.op for node in tape.nodes] == ["add"]
        err = grad_check(lambda a, b, c: mul(add(a, b, c), probe).sum(),
                         [a, b, c])
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


class TestRelu:
    def test_sign_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_identity_on_positives(self):
        x = np.array([0.5, 1.0, 7.25])
        np.testing.assert_array_equal(relu(Tensor(x)).data, x)

    def test_gradient(self):
        (gx,) = backward_of(lambda x: relu(x).sum(), np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(gx, [0.0, 1.0])

    def test_subgradient_at_zero_is_zero(self):
        (gx,) = backward_of(lambda x: relu(x).sum(), np.array([0.0]))
        np.testing.assert_array_equal(gx, [0.0])


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-12)

    def test_saturating_mask(self):
        out = softmax_lastdim(Tensor([0.0, -np.inf]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_hand_computed(self):
        out = softmax_lastdim(Tensor([1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.26894, 0.73106], atol=1e-5)

    def test_empty_support_is_an_error(self):
        with pytest.raises(AutodiffError, match="empty support"):
            softmax_lastdim(Tensor([-np.inf, -np.inf]))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_stochastic_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        out = softmax_lastdim(Tensor(rng.standard_normal((4, 7)) * 10)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert ((out >= 0) & (out <= 1)).all()


def reference_batch_norm(x, gamma, beta, mean, var, eps, momentum, training,
                         g):
    """The textbook batch norm through xhat followed by ReLU, with the
    three-term backward of the masked gradient: output, gradients for x,
    gamma and beta, and the running statistics after the call."""
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
    g = g * (pre > 0)  # relu's subgradient at 0 is 0
    ggamma = (g * xhat).sum(axis=(0, 1))
    gbeta = g.sum(axis=(0, 1))
    if training:
        gx = gamma * inv * (g - g.mean(axis=(0, 1))
                            - xhat * (g * xhat).mean(axis=(0, 1)))
    else:
        gx = g * gamma * inv
    return out, gx, ggamma, gbeta, mean, var


def perturbed_state(rng, c):
    state = BatchNormState(c)
    state.running_mean[:] = rng.standard_normal(c)
    state.running_var[:] = rng.uniform(0.5, 2.0, c)
    return state


def batch_norm_on(x, gamma, beta, state, training):
    """Batch norm and its ReLU applied to ``x``: in train mode the
    ``batch_norm`` op itself, in eval mode the conv → batch norm → ReLU
    stage of an identity conv, whose one graph_conv node takes the batch
    norm as its scale-and-shift epilogue and hands it ``x`` exactly."""
    if training:
        return batch_norm(x, gamma, beta, state)
    k, c = x.shape[-2:]
    conv = VanillaGConv(c, c, np.eye(k), np.random.default_rng(0))
    conv.w.data = np.eye(c)
    bn = BatchNormNodes(c)
    bn.gamma, bn.beta, bn.state = gamma, beta, state
    return conv_bn_relu(conv, bn, x, train=False)


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
        with Tape() as tape:
            out = batch_norm_on(x, gamma, beta, state, training)
            tape.backward(out, grad=probe)
        ops = [node.op for node in tape.nodes]
        assert ops[-1] == ("batch_norm" if training else "matmul")
        assert ops.count("batch_norm") + ops.count("matmul") == 1
        actual = (out.data, x.grad, gamma.grad, beta.grad, state.running_mean,
                  state.running_var)
        for got, want in zip(actual, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_vjp_takes_a_gradient_of_any_layout(self, training):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(5), requires_grad=True)
        beta = Tensor(rng.standard_normal(5), requires_grad=True)
        state = perturbed_state(rng, 5)
        probe = rng.standard_normal((3, 4, 5))
        with Tape() as tape:
            batch_norm_on(x, gamma, beta, state, training)
        node = tape.nodes[-1]
        c_order = node.vjp(probe.copy())
        f_order = node.vjp(np.asfortranarray(probe))
        for a, b in zip(c_order, f_order):
            np.testing.assert_array_equal(a, b)

    def test_eval_mode_against_oracle(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        state = perturbed_state(rng, 4)
        probe = Tensor(rng.standard_normal((2, 3, 4)))

        def f(x, gamma, beta):
            return mul(batch_norm_on(x, gamma, beta, state, training=False),
                       probe).sum()

        assert grad_check(f, [x, gamma, beta]) < 1e-6

    def test_eval_backward_uses_statistics_of_its_forward(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        state = perturbed_state(rng, 4)
        mean, var = state.running_mean.copy(), state.running_var.copy()
        probe = rng.standard_normal((2, 3, 4))
        with Tape() as tape:
            out = batch_norm_on(x, gamma, beta, state, training=False)
            # a train-mode forward moves the running statistics in place
            batch_norm(Tensor(5.0 + rng.standard_normal((2, 3, 4))),
                       Tensor(gamma.data), Tensor(beta.data), state)
            assert not np.allclose(state.running_mean, mean)
            assert not np.allclose(state.running_var, var)
            tape.backward(out, grad=probe)
        _, gx, ggamma, gbeta, _, _ = reference_batch_norm(
            x.data, gamma.data, beta.data, mean, var, BN_EPS,
            BN_MOMENTUM, False, probe)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12)
        np.testing.assert_allclose(gamma.grad, ggamma, rtol=1e-12)
        np.testing.assert_allclose(beta.grad, gbeta, rtol=1e-12)

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
        x = Tensor(np.array([-2.0, 3.0]).reshape(2, 1, 1), requires_grad=True)
        gamma = Tensor(np.ones(1), requires_grad=True)
        beta = Tensor(np.zeros(1), requires_grad=True)
        state = BatchNormState(1)
        inv = 1.0 / np.sqrt(1.0 + BN_EPS)
        with Tape() as tape:
            out = batch_norm_on(x, gamma, beta, state, training=False)
            tape.backward(out, grad=np.array([5.0, 7.0]).reshape(2, 1, 1))
        np.testing.assert_allclose(out.data.ravel(), [0.0, 3.0 * inv],
                                   rtol=1e-15)
        np.testing.assert_allclose(x.grad.ravel(), [0.0, 7.0 * inv], rtol=1e-15)
        np.testing.assert_allclose(gamma.grad, [21.0 * inv], rtol=1e-15)
        np.testing.assert_allclose(beta.grad, [7.0], rtol=1e-15)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        state = BatchNormState(4)
        probe = Tensor(rng.standard_normal((2, 3, 4)))

        def f(x, gamma, beta):
            return mul(batch_norm(x, gamma, beta, state), probe).sum()

        assert grad_check(f, [x, gamma, beta]) < 1e-4

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


class TestStructural:
    def test_max_over_set_strict_max(self):
        x = Tensor(np.array([[3.0], [10.0], [5.0]]), requires_grad=True)
        with Tape() as tape:
            out = max_over_set(x, [(0, 2)])
            assert out.data.ravel().tolist() == [5.0]
            tape.backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[0.0], [0.0], [1.0]])

    def test_max_over_set_tie_goes_to_lowest_index(self):
        x = Tensor(np.array([[7.0], [7.0]]), requires_grad=True)
        with Tape() as tape:
            out = max_over_set(x, [(0, 1)])
            tape.backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[1.0], [0.0]])

    @pytest.mark.parametrize("groups", [
        [(0, 1), (1, 2)],        # overlapping pairs
        [(0, 1), (2,)],          # a single-node group
        [(0, 1), (2, 3, 4)],     # groups of unequal size
        [(0, 1, 2), (3, 4, 5)],  # equal size, but not pairs
        [(2, 2)],                # a pair that repeats its node
        [],                      # no groups at all
    ])
    def test_max_over_set_rejects_non_disjoint_pairs(self, groups):
        x = Tensor(np.arange(12.0).reshape(6, 2))
        with pytest.raises(ShapeError):
            max_over_set(x, groups)

    def test_max_over_set_with_ties_matches_the_selecting_form(self):
        # small integers force ties, signed zeros among them
        rng = np.random.default_rng(17)
        data = rng.integers(-2, 3, size=(64, 16, 128)).astype(np.float64)
        groups = [(2 * i, 2 * i + 1) for i in range(8)]
        g = rng.standard_normal((64, 8, 128))
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out = max_over_set(x, groups)
            tape.backward(out, grad=g)
        first, second = data[:, 0::2], data[:, 1::2]
        first_wins = first >= second
        assert (first == second).mean() > 0.1
        want_gx = np.zeros_like(data)
        want_gx[:, 0::2] = np.where(first_wins, g, 0.0)
        want_gx[:, 1::2] = np.where(first_wins, 0.0, g)
        # == treats -0.0 and 0.0 alike
        np.testing.assert_array_equal(out.data,
                                      np.where(first_wins, first, second))
        np.testing.assert_array_equal(x.grad, want_gx)

    def test_max_over_set_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            max_over_set(Tensor(np.zeros((4, 2))), [(0, 4)])

    def test_sum_gradient_is_ones(self):
        (gx,) = backward_of(lambda x: x.sum(), np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(gx, np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_primitives_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        probe = rng.standard_normal((2, 6, 3))

        def f(x, y, w):
            h = add(mul(relu(x), y), mul(add(x, mul(y, -1.0)), 0.5))
            # a selection matrix that drops channel 0 leaves it no gradient,
            # and one that repeats channel 1 sums its gradient
            select = np.eye(6)[:, [5, 1, 2, 3, 4, 1]]
            h = matmul(h, select)
            h = matmul(transpose(h, (0, 2, 1)), w)          # (2, 6, 3)
            h = mul(h, Tensor(probe))
            p = max_over_set(softmax_lastdim(h), [(0, 1), (2, 3)])
            return add(tensor_sum(p), tensor_sum(add(h, -0.5))).sum()

        assert grad_check(f, [x, y, w]) < 1e-4


class TestGradCheckOracle:
    def test_quadratic_closed_form(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            tape.backward(mul(x, x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        x.grad = None
        assert grad_check(lambda x: mul(x, x).sum(), [x]) < 1e-6

    def test_linear_is_exact(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        err = grad_check(lambda x: mul(x, 3.0).sum(), [x])
        assert err < 1e-9

    def test_detects_injected_wrong_backward(self):
        from semgcn import autodiff as ad

        def broken_square(x):
            out_data = x.data * x.data

            def vjp(g):
                return (g,)  # wrong on purpose: should be 2 * x * g

            return ad._maybe_record("broken_square", (x,), out_data, vjp)

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda x: broken_square(x).sum(), [x])
        assert err > 1e-2


class TestBackwardBuffers:
    """Each vjp may overwrite the output gradient it is handed."""

    @pytest.mark.parametrize("root_op", ["relu", "scale", "add", "mul",
                                         "batch_norm", "eval_stage"])
    def test_seed_and_root_grad_are_left_alone(self, root_op):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        ops = {
            "relu": lambda x: relu(x),
            "scale": lambda x: mul(x, -3.0),
            "add": lambda x: add(x, x),
            "mul": lambda x: mul(x, x),
            "batch_norm": lambda x: batch_norm(
                x, Tensor(np.full(4, 2.0)), Tensor(np.zeros(4)),
                BatchNormState(4)),
            "eval_stage": lambda x: batch_norm_on(
                x, Tensor(np.full(4, 2.0)), Tensor(np.zeros(4)),
                BatchNormState(4), training=False),
        }
        seed = rng.standard_normal((2, 3, 4))
        kept = seed.copy()
        with Tape() as tape:
            out = ops[root_op](x)
            tape.backward(out, grad=seed)
        np.testing.assert_array_equal(seed, kept)
        np.testing.assert_array_equal(out.grad, kept)
        assert x.grad is not seed and x.grad is not out.grad

    def test_seed_is_not_accumulated_into(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seed = np.array([0.5, 3.0])
        with Tape() as tape:
            out = relu(x)
            tape.backward(out, grad=seed)
            tape.backward(out, grad=seed)
        np.testing.assert_array_equal(seed, [0.5, 3.0])
        np.testing.assert_array_equal(out.grad, [1.0, 6.0])

    @pytest.mark.parametrize("case", [
        "add_self", "relu_and_add_of_leaf", "relu_and_add_of_node",
        "scale_of_relu", "add_of_scale_and_relu"])
    def test_shared_buffers_against_oracle(self, case):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        probe = Tensor(rng.standard_normal((3, 5)))
        cases = {
            "add_self": lambda x, w: add(x, x),
            "relu_and_add_of_leaf": lambda x, w: add(relu(x), x),
            "relu_and_add_of_node": lambda x, w: (
                lambda h: add(relu(h), h, h))(mul(x, w)),
            "scale_of_relu": lambda x, w: mul(relu(x), -2.5),
            "add_of_scale_and_relu": lambda x, w: (
                lambda h: add(mul(h, 3.0), relu(h)))(add(x, mul(w, -1.0))),
        }

        def f(x, w):
            return mul(cases[case](x, w), probe).sum()

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
            return mul(cases[case](x, w), probe).sum()

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
        err = grad_check(lambda x, w: mul(matmul(x, w, x), probe).sum(),
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
                tape.backward(matmul(Tensor(x), w).sum())

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
                out = relu(matmul(Tensor(x), t))
                loss = out.sum()
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
