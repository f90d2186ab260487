"""Loss values, optimizer behavior, schedule logic, and training-loop
contracts (determinism, null updates, divergence handling)."""

from collections import Counter

import numpy as np
import pytest

from semgcn.autodiff import Tape, Tensor, grad_check
from semgcn.network import NetworkConfig, build_network
from semgcn.posedata import centered_arrays, generate_synthetic, mpjpe, split_dataset
from semgcn.skeleton import SkeletonGraph, build_skeleton
from semgcn.training import (
    Adam,
    NonFiniteGradientError,
    PlateauScheduler,
    TrainConfig,
    EVAL_CHUNK,
    bone_vectors,
    evaluate,
    pose_loss,
    predict,
    train,
)


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


def two_joint_graph() -> SkeletonGraph:
    return SkeletonGraph(joints=("root", "tip"), edges=((0, 1),),
                         parent=(-1, 0), root=0, canonical_bone_lengths=(1.0,))


class TestBoneVectors:
    def test_hand_value(self):
        g = two_joint_graph()
        j3d = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(bone_vectors(j3d, g), [[-1.0, 0.0, 0.0]])

    def test_coincident_joints_give_zero_bones(self, skel):
        j3d = np.ones((16, 3)) * 7.0
        np.testing.assert_array_equal(bone_vectors(j3d, skel),
                                      np.zeros((15, 3)))

    def test_translation_invariant(self, skel):
        rng = np.random.default_rng(0)
        j3d = rng.standard_normal((16, 3))
        shift = np.array([10.0, -4.0, 2.5])
        np.testing.assert_allclose(bone_vectors(j3d + shift, skel),
                                   bone_vectors(j3d, skel), atol=1e-12)

    def test_batched_tensor_matches_numpy(self, skel):
        rng = np.random.default_rng(1)
        j3d = rng.standard_normal((3, 16, 3))
        out = bone_vectors(Tensor(j3d), skel)
        np.testing.assert_array_equal(out.data, bone_vectors(j3d, skel))
        # the incidence product is exact: one +1 and one -1 term per bone
        parents = [p for p, _ in skel.edges]
        children = [c for _, c in skel.edges]
        np.testing.assert_array_equal(
            out.data, j3d[..., parents, :] - j3d[..., children, :])


class TestPoseLoss:
    def test_zero_for_identical(self, skel):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 16, 3))
        loss = pose_loss(Tensor(x), x, skel, use_bone=True)
        assert loss.item() == 0.0

    def test_two_joint_hand_value(self):
        # joint term ||(0,1,0)||^2 = 1 plus bone term ||(0,-1,0)||^2 = 1
        g = two_joint_graph()
        gt = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
        pred = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]])
        loss = pose_loss(Tensor(pred), gt, g, use_bone=True)
        assert loss.item() == 2.0

    def test_gradient_against_oracle(self, skel):
        rng = np.random.default_rng(3)
        pred = Tensor(rng.standard_normal((2, 16, 3)), requires_grad=True)
        gt = rng.standard_normal((2, 16, 3))
        err = grad_check(lambda p: pose_loss(p, gt, skel, use_bone=True),
                         [pred])
        assert err < 1e-4

    def test_bone_term_is_one_product_on_the_tape(self, skel):
        rng = np.random.default_rng(6)
        pred = Tensor(rng.standard_normal((2, 16, 3)), requires_grad=True)
        with Tape() as tape:
            pose_loss(pred, rng.standard_normal((2, 16, 3)), skel, use_bone=True)
        assert Counter(node.op for node in tape.nodes) == {
            "add": 3, "mul": 3, "sum": 2, "matmul": 1}

    def test_bone_gradient_matches_explicit_scatter(self, skel):
        # the reference gathers parents and children and scatter-adds the
        # bone gradient back; the incidence product sums a joint's bone
        # terms in another order, so the two agree to rounding
        rng = np.random.default_rng(7)
        pred = Tensor(rng.standard_normal((3, 16, 3)) * 300, requires_grad=True)
        gt = rng.standard_normal((3, 16, 3)) * 300
        with Tape() as tape:
            tape.backward(pose_loss(pred, gt, skel, use_bone=True))
        parents = [p for p, _ in skel.edges]
        children = [c for _, c in skel.edges]
        bones = pred.data[:, parents] - pred.data[:, children]
        bdiff = bones - (gt[:, parents] - gt[:, children])
        want = 2.0 * (pred.data - gt)
        np.add.at(want, (slice(None), parents), 2.0 * bdiff)
        np.add.at(want, (slice(None), children), -2.0 * bdiff)
        np.testing.assert_allclose(pred.grad, want / 3, rtol=1e-12)

    def test_translation_invariance_with_and_without_bones(self, skel):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((2, 16, 3))
        gt = rng.standard_normal((2, 16, 3))
        t = rng.standard_normal(3) * 50
        for use_bone in (False, True):
            a = pose_loss(Tensor(pred + t), gt + t, skel, use_bone).item()
            b = pose_loss(Tensor(pred), gt, skel, use_bone).item()
            assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(b)))

    def test_batch_mean_reduction(self, skel):
        rng = np.random.default_rng(5)
        pred = rng.standard_normal((4, 16, 3))
        gt = rng.standard_normal((4, 16, 3))
        full = pose_loss(Tensor(pred), gt, skel).item()
        singles = [pose_loss(Tensor(pred[i:i + 1]), gt[i:i + 1], skel).item()
                   for i in range(4)]
        assert full == pytest.approx(np.mean(singles), rel=1e-12)


class TestAdam:
    def test_first_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam([("p", p)], lr=1e-3)
        opt.step()
        delta = p.data[0] - 1.0
        assert abs(delta + 1e-3) < 1e-6

    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([("p", p)], lr=1e-3)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_equal_gradients_equal_updates(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([5.0]), requires_grad=True)
        a.grad = np.array([0.37])
        b.grad = np.array([0.37])
        opt = Adam([("a", a), ("b", b)], lr=1e-3)
        opt.step()
        assert (a.data[0] - 1.0) == pytest.approx(b.data[0] - 5.0, abs=1e-15)

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = Adam([("layer.w", p)], lr=1e-3)
        with pytest.raises(NonFiniteGradientError, match="layer.w"):
            opt.step()

    def test_descent_on_quadratic(self):
        rng = np.random.default_rng(6)
        p = Tensor(rng.standard_normal(5), requires_grad=True)
        lr, steps = 1e-2, 600
        opt = Adam([("p", p)], lr=lr)
        # While the gradient keeps its sign, each Adam step moves a
        # coordinate by about lr at most, so the budget must cover the
        # farthest start coordinate or the bound below is unreachable.
        assert steps * lr > np.abs(p.data).max(), (
            f"test budget cannot reach the bound: {steps} steps at lr {lr} "
            f"move a coordinate by ~{steps * lr}, start max|p| is "
            f"{np.abs(p.data).max():.3f}")
        from semgcn.autodiff import mul
        for _ in range(steps):
            with Tape() as tape:
                loss = mul(p, p).sum()
                tape.backward(loss)
            opt.step()
            p.grad = None
        assert np.abs(p.data).max() < 0.05

    def test_matches_reference_update_on_quadratic(self):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(5)
        p = Tensor(x0.copy(), requires_grad=True)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam([("p", p)], lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        from semgcn.autodiff import mul
        x, m, v = x0.copy(), np.zeros(5), np.zeros(5)
        for t in range(1, 301):
            with Tape() as tape:
                loss = mul(p, p).sum()
                tape.backward(loss)
            opt.step()
            p.grad = None
            g = 2.0 * x
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert opt.step_count == 300
        np.testing.assert_allclose(p.data, x, rtol=0, atol=1e-12)

    def test_shared_scratch_update_is_bitwise_the_plain_expressions(self):
        # parameters of different sizes share the update temporaries
        rng = np.random.default_rng(9)
        shapes = [(4, 3), (7,), (2, 2, 2), (1,)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in shapes]
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam([(f"p{i}", p) for i, p in enumerate(params)], lr=lr)
        ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
               for p in params]
        for t in range(1, 6):
            grads = [rng.standard_normal(s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                x, m, v = ref[i]
                m = m * beta1 + (1.0 - beta1) * g
                v = v * beta2 + (1.0 - beta2) * (g * g)
                x = x - lr * (m / (1.0 - beta1 ** t)) / (
                    np.sqrt(v / (1.0 - beta2 ** t)) + eps)
                ref[i] = (x, m, v)
        for p, (x, _, _) in zip(params, ref):
            np.testing.assert_array_equal(p.data, x)


class TestPlateauScheduler:
    # PATIENCE = COOLDOWN = 5, THRESHOLD = 1e-3, FACTOR = 0.5
    def test_decreasing_history_keeps_lr(self):
        sched = PlateauScheduler(1e-3)
        lr = 1e-3
        val = 100.0
        for _ in range(20):
            lr = sched.step(val)
            val *= 0.9
        assert lr == 1e-3

    def test_flat_history_halves_once(self):
        sched = PlateauScheduler(1e-3)
        lrs = [sched.step(1.0) for _ in range(5 + 1)]
        assert lrs[-2] == 1e-3
        assert lrs[-1] == pytest.approx(5e-4)

    def test_two_plateaus_two_halvings(self):
        sched = PlateauScheduler(1e-3)
        for _ in range(6):
            lr = sched.step(1.0)
        assert lr == pytest.approx(5e-4)
        lr = sched.step(0.5)  # epoch 6: a clear improvement, cooldown 4 left
        # every epoch counts the cooldown down: 4 more held, then 5 bad ones
        lrs = [sched.step(0.5) for _ in range(9)]
        assert lrs[-2] == pytest.approx(5e-4)
        assert lrs[-1] == pytest.approx(2.5e-4)

    def test_cooldown_delays_next_drop(self):
        sched = PlateauScheduler(1e-3)
        lrs = [sched.step(1.0) for _ in range(16)]
        # drop at epoch 5, then 5 cooldown epochs, then 5 more bad epochs
        assert min(i for i, v in enumerate(lrs) if v < 1e-3) == 5
        assert lrs[5:15] == [pytest.approx(5e-4)] * 10
        assert lrs[-1] == pytest.approx(2.5e-4)

    def test_sub_threshold_improvement_counts_as_plateau(self):
        sched = PlateauScheduler(1e-3)
        val = 1.0
        for _ in range(6):
            lr = sched.step(val)
            val *= 1.0 - 1e-5  # improving, but below the 0.1% threshold
        assert lr == pytest.approx(5e-4)


@pytest.fixture(scope="module")
def small_data(skel):
    ds = generate_synthetic(120, seed=21)
    return split_dataset(ds)


def small_config(**kw) -> TrainConfig:
    base = dict(lr=1e-3, batch_size=16, max_epochs=2, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def small_net(skel, seed=5):
    cfg = NetworkConfig(variant="semgcn-conv-only", channels=16, blocks=1)
    return build_network(cfg, skel, seed=seed)


class TestTrainLoop:
    def test_zero_lr_keeps_params_bitwise(self, skel, small_data):
        train_ds, val_ds, _ = small_data
        net = small_net(skel)
        before = {n: p.data.copy() for n, p in net.named_parameters()}
        result = train(net, train_ds, val_ds, small_config(lr=0.0))
        assert not result.aborted
        for name, p in net.named_parameters():
            assert np.array_equal(before[name], p.data), name

    def test_fixed_seed_reproduces_logs_exactly(self, skel, small_data):
        train_ds, val_ds, _ = small_data
        r1 = train(small_net(skel), train_ds, val_ds, small_config())
        r2 = train(small_net(skel), train_ds, val_ds, small_config())

        def without_timings(history):
            # wall-clock fields are the only ones a fixed seed cannot fix
            return [{k: v for k, v in record.items()
                     if k not in ("wall_s", "train_samples_per_s")}
                    for record in history]

        assert without_timings(r1.history) == without_timings(r2.history)
        for name in r1.best_params:
            assert np.array_equal(r1.best_params[name], r2.best_params[name])

    def test_single_step_decreases_singleton_batch_loss(self, skel):
        # lr small enough that the first Adam step must descend
        rng_seeds = range(10)
        ds = generate_synthetic(1, seed=33)
        from semgcn.posedata import centered_arrays
        x, y = centered_arrays(ds)
        for seed in rng_seeds:
            net = small_net(skel, seed=seed)
            opt = Adam(net.named_parameters(), lr=1e-6)
            with Tape() as tape:
                loss0 = pose_loss(net.forward(x, train=True), y, skel)
                tape.backward(loss0)
            opt.step()
            net.zero_grad()
            loss1 = pose_loss(net.forward(x, train=True), y, skel)
            assert loss1.item() < loss0.item(), f"seed {seed}"

    def test_divergence_aborts_with_last_good_snapshot(self, skel, small_data):
        train_ds, val_ds, _ = small_data
        net = small_net(skel)
        before = {n: p.data.copy() for n, p in net.named_parameters()}
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            result = train(net, train_ds, val_ds, small_config(lr=1e200))
        assert result.aborted
        assert result.abort_reason
        # parameters restored to the last good (initial) snapshot
        for name, p in net.named_parameters():
            assert np.array_equal(before[name], p.data), name

    def test_history_log_schema(self, skel, small_data):
        train_ds, val_ds, _ = small_data
        result = train(small_net(skel), train_ds, val_ds, small_config())
        assert len(result.history) == 2
        for record in result.history:
            assert set(record) == {"epoch", "train_loss", "val_loss", "lr",
                                   "val_mpjpe", "wall_s",
                                   "train_samples_per_s"}
            assert record["wall_s"] > 0.0
            assert record["train_samples_per_s"] > 0.0

    def test_parameter_trajectory_hash_determinism(self, skel, small_data):
        import hashlib

        def run_and_hash():
            net = small_net(skel)
            hashes = []

            def on_epoch(record):
                digest = hashlib.sha256()
                for _, p in net.named_parameters():
                    digest.update(p.data.tobytes())
                hashes.append(digest.hexdigest())

            train_ds, val_ds, _ = small_data
            train(net, train_ds, val_ds, small_config(), on_epoch=on_epoch)
            return hashes

        assert run_and_hash() == run_and_hash()


class TestEvaluate:
    def test_one_chunk_matches_one_forward_bitwise(self, skel, small_data):
        _, val_ds, _ = small_data
        x, y = centered_arrays(val_ds)
        net = small_net(skel)
        pred = net.forward(x, train=False)
        n = x.shape[0]
        # the loss exactly as a row-weighted mean over one chunk
        loss = pose_loss(pred, y, skel, use_bone=True).item() * n / n
        assert np.array_equal(predict(net, x), pred.data)
        assert evaluate(net, x, y, skel, use_bone=True) == \
            (loss, mpjpe(pred.data, y))

    def test_chunks_weigh_the_loss_by_rows(self, skel):
        x, y = centered_arrays(generate_synthetic(EVAL_CHUNK + 88, seed=22))
        net = small_net(skel)
        starts = range(0, x.shape[0], EVAL_CHUNK)
        assert len(starts) == 2
        preds = [net.forward(x[s:s + EVAL_CHUNK], train=False) for s in starts]
        loss = sum(pose_loss(p, y[s:s + EVAL_CHUNK], skel).item() * p.shape[0]
                   for s, p in zip(starts, preds)) / x.shape[0]
        pred = np.concatenate([p.data for p in preds])
        assert np.array_equal(predict(net, x), pred)
        assert evaluate(net, x, y, skel, use_bone=False) == \
            (loss, mpjpe(pred, y))
        # chunking changes only GEMM shapes, hence summation order
        np.testing.assert_allclose(pred, net.forward(x, train=False).data,
                                   rtol=1e-9, atol=1e-9)
