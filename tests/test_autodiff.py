"""Engine-level tests: primitive semantics, backward passes, the
finite-difference oracle, and tape behavior."""

import numpy as np
import pytest

from semgcn.autodiff import (
    AutodiffError,
    BatchNormState,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    add,
    batch_norm,
    grad_check,
    index_select,
    matmul,
    max_over_set,
    mul,
    narrow,
    relu,
    reshape,
    scale,
    softmax_lastdim,
    sub,
    tensor_sum,
    transpose,
)


def backward_of(f, *arrays):
    """Gradients of a scalar-valued tensor function at the given points."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = f(*tensors)
        tape.backward(out)
    return [t.grad for t in tensors]


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


class TestBatchNorm:
    def test_train_mode_hand_value(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1), requires_grad=True)
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        out = batch_norm(x, gamma, beta, BatchNormState(1), training=True)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-6)

    def test_eval_identity_stats(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4))
        out = batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         BatchNormState(4), training=False)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_gradient_against_oracle(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        state = BatchNormState(4)
        probe = Tensor(rng.standard_normal((2, 3, 4)))

        def f(x, gamma, beta):
            return mul(batch_norm(x, gamma, beta, state, training=True),
                       probe).sum()

        assert grad_check(f, [x, gamma, beta]) < 1e-4

    def test_train_needs_two_rows(self):
        x = Tensor(np.zeros((1, 1, 4)))
        with pytest.raises(ShapeError):
            batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       BatchNormState(4), training=True)

    def test_running_stats_update(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        state = BatchNormState(1, momentum=0.1)
        batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state,
                   training=True)
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

    def test_max_over_set_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            max_over_set(Tensor(np.zeros((4, 2))), [(0, 4)])

    def test_sum_gradient_is_ones(self):
        (gx,) = backward_of(lambda x: x.sum(), np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(gx, np.ones((2, 3)))

    def test_narrow_and_index_select(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with Tape() as tape:
            picked = index_select(narrow(x, 0, 1, 3), 0, [0, 0, 2])
            tape.backward(picked.sum())
        expected = np.zeros((4, 3))
        expected[1] = 2.0  # selected twice
        expected[3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_primitives_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        probe = rng.standard_normal((2, 4, 3))

        def f(x, y, w):
            h = add(mul(relu(x), y), scale(sub(x, y), 0.5))
            # a repeated index makes the backward scatter-add
            h = index_select(narrow(h, 2, 1, 5), 2, [4, 0, 1, 2, 3, 0])
            h = matmul(transpose(reshape(h, (2, 6, 4)), (0, 2, 1)), w)
            h = mul(h, Tensor(probe))
            p = max_over_set(softmax_lastdim(h), [(0, 1), (2, 3)])
            return add(tensor_sum(p), tensor_sum(h - 0.5, axis=1)).sum()

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
        err = grad_check(lambda x: scale(x, 3.0).sum(), [x])
        assert err < 1e-9

    def test_detects_injected_wrong_backward(self):
        from semgcn import autodiff as ad

        def broken_square(x):
            out_data = x.data * x.data

            def make_vjp():
                def vjp(g):
                    return (g,)  # wrong on purpose: should be 2 * x * g
                return vjp

            return ad._maybe_record("broken_square", (x,), out_data, make_vjp)

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda x: broken_square(x).sum(), [x])
        assert err > 1e-2


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
        out = scale(x, 2.0)
        assert out.grad is None
        assert x.grad is None

    def test_scalar_operator_sugar(self):
        x = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_array_equal((x * 2.0 + 1.0).data, [3.0, 5.0])
        np.testing.assert_array_equal((-x).data, [-1.0, -2.0])
        np.testing.assert_array_equal((x - 1.0).data, [0.0, 1.0])
