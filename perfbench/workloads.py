"""The benchmark workloads: training one variant at the paper's size,
closed loop with one caller, through the public semgcn API.

Set-up follows ``semgcn gen-data`` then ``semgcn train``: generate poses,
split them, save the splits, load them back and centre them, then build
the network and Adam and take two warm-up steps.  The timed region runs training steps with a
validation pass (eval-mode forward) after each epoch.  After it, the
trained network goes through a checkpoint round trip.  Every output is
checked.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from time import perf_counter, process_time

import numpy as np

from semgcn import (
    Adam,
    AutodiffError,
    NetworkConfig,
    Tape,
    build_network,
    build_skeleton,
    count_params,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    pose_loss,
    save_checkpoint,
    save_dataset,
    split_dataset,
)
from semgcn.posedata import centered_arrays
from semgcn.training import TrainConfig, TrainingError, evaluate

from .harness import MIB, Run, percentile
from .tracing import (
    CLS,
    LAYER_CLASSES,
    NAME,
    T0,
    T1,
    Tracer,
    node_owners,
    self_times_ms,
    timed_vjps,
)

NET_SEED = 0        # weights are part of the workload; --seed picks the data
CHECK_SEED = 7      # fixed batch and direction of the directional derivative
NOISE_SIGMA = 1.0   # detector noise on the generated 2D poses, projected units
WARMUP_STEPS = 2
# Central difference of the float64 loss along a direction with unit
# variance per element.  Larger steps cross ReLU and max-pool kinks of the
# paper-size network (the error then grows in proportion to the step); at
# this step the relative error is 4e-10 (semgcn) and 6e-9 (resgcn) at paper
# size, and below 1e-7 at toy size.
DIRECTIONAL_STEP = 1e-7
DIRECTIONAL_TOL = 1e-6
# A B=1 forward and the same row of the batched validation forward run the
# same float64 ops over different GEMM shapes: only summation order differs.
ROW_RTOL = 1e-9
ROW_ATOL = 1e-9  # mm
ROWS_CHECKED = 8
PREFIX_SAMPLES = 32


def _perturb_zero_params(net, rng) -> None:
    """Move zero-initialized tensors (edge logits, biases, the non-local
    output map) off zero, so the check sees a generic network."""
    for _, p in net.named_parameters():
        if not p.data.any():
            p.data = rng.standard_normal(p.shape) * 0.1


def _loss_trend_ok(losses: list[float]) -> bool:
    k = max(1, min(5, len(losses) // 3))
    return statistics.fmean(losses[-k:]) < statistics.fmean(losses[:k])


def _bone_lengths_ok(ds, g) -> bool:
    j3, _ = ds.arrays()
    parents = [p for p, _ in g.edges]
    children = [c for _, c in g.edges]
    lengths = np.linalg.norm(j3[:, children] - j3[:, parents], axis=-1)
    return np.allclose(lengths, np.asarray(g.canonical_bone_lengths),
                       rtol=1e-9, atol=0.0)


def _arrays_equal(a, b) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(a.arrays(), b.arrays()))


def directional_derivative_error(config: NetworkConfig, check_batch: int,
                                 g) -> float:
    """Relative gap between <grad, d> and the central difference of the
    loss along a random direction d, for one fixed batch."""
    net = build_network(config, g, seed=NET_SEED)
    rng = np.random.default_rng(CHECK_SEED)
    _perturb_zero_params(net, rng)
    ds = generate_synthetic(check_batch, CHECK_SEED, skeleton=g)
    x, y = centered_arrays(ds, g.root)
    params = net.parameters()
    with Tape() as tape:
        loss = pose_loss(net.forward(x, train=True), y, g)
        tape.backward(loss)
    direction = [rng.standard_normal(p.shape) for p in params]
    slope = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, direction))
    base = [p.data for p in params]

    def loss_along(t: float) -> float:
        for p, p0, d in zip(params, base, direction):
            p.data = p0 + t * d
        return pose_loss(net.forward(x, train=True), y, g).item()

    h = DIRECTIONAL_STEP
    numeric = (loss_along(h) - loss_along(-h)) / (2.0 * h)
    return abs(numeric - slope) / max(abs(numeric), abs(slope))


def _traced_step(tracer: Tracer, net, opt, g, xb, yb) -> tuple[float, dict, dict]:
    """One training step with spans and per-node backward timing.

    Returns the loss, the step's times (ms) and its counts, which repeat
    exactly from step to step.
    """
    mark = len(tracer.spans)
    tracer.enabled = True
    try:
        with Tape() as tape:
            tracer.tape = tape
            with tracer.span("forward", "training"):
                pred = net.forward(xb, train=True)
            with tracer.span("loss", "training"):
                loss = pose_loss(pred, yb, g)
            vjp_s = timed_vjps(tape.nodes)
            with tracer.span("backward", "training"):
                tape.backward(loss)
        with tracer.span("adam", "training"):
            opt.step()
        with tracer.span("zero_grad", "training"):
            net.zero_grad()
    finally:
        tracer.enabled = False
        tracer.tape = None
    spans = tracer.spans[mark:]
    times = {f"training.{s[NAME]}_ms": (s[T1] - s[T0]) * 1e3
             for s in spans if s[CLS] == "training"}
    fwd = self_times_ms(spans)
    for cls in LAYER_CLASSES:
        times[f"layers.{cls}.fwd_ms"] = fwd.get(cls, 0.0)
        times[f"layers.{cls}.bwd_ms"] = 0.0
    counts = Counter(node.op for node in tape.nodes)
    counts = {f"autodiff.tape_nodes.{op}": n for op, n in counts.items()}
    counts["autodiff.tape_nodes"] = len(tape.nodes)
    counts["autodiff.tape_mb"] = sum(n.output.data.nbytes for n in tape.nodes) / MIB
    counts["autodiff.matmul_gflop"] = sum(
        2 * n.output.data.size * n.inputs[0].shape[-1]
        for n in tape.nodes if n.op == "matmul") / 1e9
    owners = node_owners(spans, len(tape.nodes))
    for node, owner, dt in zip(tape.nodes, owners, vjp_s):
        key = f"autodiff.bwd_ms.{node.op}"
        times[key] = times.get(key, 0.0) + dt * 1e3
        if owner in LAYER_CLASSES:
            times[f"layers.{owner}.bwd_ms"] += dt * 1e3
    times["autodiff.accumulate_ms"] = times["training.backward_ms"] - sum(vjp_s) * 1e3
    return loss.item(), times, counts


def _plain_step(net, opt, g, xb, yb) -> float:
    with Tape() as tape:
        loss = pose_loss(net.forward(xb, train=True), yb, g)
        tape.backward(loss)
    opt.step()
    net.zero_grad()
    return loss.item()


def train(run: Run, variant: str) -> None:
    size = run.size
    g = build_skeleton()
    cfg = TrainConfig(batch_size=size.batch)
    config = NetworkConfig(variant=variant, channels=size.channels,
                           blocks=size.blocks)

    def setup():
        with run.timed("posedata.generate_ms"):
            ds = generate_synthetic(size.train_samples, run.seed,
                                    noise_sigma=NOISE_SIGMA, skeleton=g)
        with run.timed("posedata.split_ms"):
            parts = split_dataset(ds)
        paths = [run.tmp / f"{part.split}.poses" for part in parts]
        with run.timed("posedata.save_ms"):
            for part, path in zip(parts, paths):
                save_dataset(part, path)
        with run.timed("posedata.load_ms"):
            loaded = [load_dataset(path) for path in paths]
        with run.timed("posedata.centered_arrays_ms"):
            x, y = centered_arrays(loaded[0], g.root)
            xv, yv = centered_arrays(loaded[1], g.root)
        net = build_network(config, g, seed=NET_SEED)
        opt = Adam(net.named_parameters(), lr=cfg.lr, beta1=cfg.adam_beta1,
                   beta2=cfg.adam_beta2, eps=cfg.adam_eps)
        # Warm-up is set-up: a cost the first steps pay lands in setup_s.
        for i in range(WARMUP_STEPS):
            rows = slice(i * cfg.batch_size, (i + 1) * cfg.batch_size)
            _plain_step(net, opt, g, x[rows], y[rows])
        return ds, parts, paths, loaded, x, y, xv, yv, net, opt

    ds, parts, paths, loaded, x, y, xv, yv, net, opt = run.setup(setup)
    run.layers["posedata.file_mb"] = sum(p.stat().st_size for p in paths) / MIB
    run.layers["network.params"] = count_params(net)
    run.check("data.roundtrip_bitwise",
              all(_arrays_equal(p, q) for p, q in zip(parts, loaded)))
    run.check("data.bone_lengths", _bone_lengths_ok(ds, g))
    shorter = generate_synthetic(min(PREFIX_SAMPLES, len(ds)), run.seed,
                                 noise_sigma=NOISE_SIGMA, skeleton=g)
    run.check("data.prefix_independent_of_n", all(
        np.array_equal(a, b[:len(shorter)])
        for a, b in zip(shorter.arrays(), ds.arrays())))
    del ds, parts, loaded, shorter
    run.check("train.directional_derivative",
              directional_derivative_error(config, size.check_batch, g)
              < DIRECTIONAL_TOL)

    tracer = None
    if run.trace:
        tracer = Tracer()
        tracer.instrument(net)
    rng = np.random.default_rng([run.seed, 0x5EED])
    n = x.shape[0]
    losses: list[float] = []
    step_ms: list[float] = []   # CPU time, see harness.py
    step_wall_ms: list[float] = []
    val_ms = run.calls["training.evaluate_ms"]   # CPU time per pass
    step_faults: list[int] = []
    traced_ms: list[float] = []
    traced_recs: list[dict] = []
    eval_self_ms: list[dict] = []
    mpjpe_mm = float("inf")
    step, epoch = 0, 0
    running = True
    start = perf_counter()
    while running:
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            traced = tracer is not None and step % 2
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0, c0 = perf_counter(), process_time()
            try:
                if traced:
                    tracer.step = step
                    loss, times, counts = _traced_step(tracer, net, opt, g,
                                                       x[idx], y[idx])
                    traced_recs.append(times)
                else:
                    loss = _plain_step(net, opt, g, x[idx], y[idx])
            except (AutodiffError, TrainingError) as exc:
                run.operation([f"train.step raised {type(exc).__name__}"])
                running = False
                break
            ms = (process_time() - c0) * 1e3
            (traced_ms if traced else step_ms).append(ms)
            if not traced:
                step_wall_ms.append((perf_counter() - t0) * 1e3)
                step_faults.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            losses.append(loss)
            run.operation(() if np.isfinite(loss) else ("train.loss_finite",))
            step += 1
        if not running:
            break
        epoch += 1
        mark = 0
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.step = -epoch  # validation passes get negative ids
            tracer.enabled = True
        c0 = process_time()
        try:
            val_loss, val_mpjpe = evaluate(net, xv, yv, g, cfg.use_bone_loss)
        except AutodiffError:  # the engine raises on non-finite values
            val_loss = val_mpjpe = float("nan")
        finally:
            if tracer is not None:
                tracer.enabled = False
        dt = process_time() - c0
        if tracer is not None:
            eval_self_ms.append(self_times_ms(tracer.spans[mark:]))
        val_ms.append(dt * 1e3)
        finite = np.isfinite(val_loss) and np.isfinite(val_mpjpe)
        run.operation(() if finite else ("eval.outputs_finite",))
        if epoch <= size.fixed_epochs:  # train() keeps the best-val snapshot
            mpjpe_mm = min(mpjpe_mm, val_mpjpe)
        running = not (epoch >= size.fixed_epochs
                       and perf_counter() - start >= run.seconds)

    run.check("train.loss_decreases", bool(losses) and _loss_trend_ok(losses))
    for _ in range(size.setup_repeats - 1):
        run.setup(setup)
    ref = net.forward(xv).data
    rows = range(min(ROWS_CHECKED, xv.shape[0]))
    run.check("eval.b1_matches_batch", all(
        np.allclose(net.forward(xv[i:i + 1]).data, ref[i:i + 1],
                    rtol=ROW_RTOL, atol=ROW_ATOL) for i in rows))
    path = run.tmp / f"{variant}.ckpt"
    with run.timed("checkpoint.save_ms"):
        save_checkpoint(path, net)
    with run.timed("checkpoint.load_ms"):
        loaded_net, _ = load_checkpoint(path, g)
    run.layers["checkpoint.file_mb"] = path.stat().st_size / MIB
    run.check("eval.checkpoint_bitwise",
              np.array_equal(loaded_net.forward(xv).data, ref))

    if step_ms and val_ms:
        run.e2e.update({
            "train_samples_per_s": cfg.batch_size * len(step_ms) / (sum(step_ms) / 1e3),
            "train_step_p50_ms": percentile(step_ms, 50),
            "train_step_p90_ms": percentile(step_ms, 90),
            "val_samples_per_s": xv.shape[0] * len(val_ms) / (sum(val_ms) / 1e3),
            "val_mpjpe_mm": mpjpe_mm,
        })
        for name, times in ((f"train steps ({len(step_ms)}), cpu", step_ms),
                            ("train steps, wall-clock", step_wall_ms),
                            (f"validation passes ({len(val_ms)}), cpu", val_ms)):
            run.report[name] = {f"p{q}": percentile(times, q)
                                for q in (10, 50, 90)}
            run.report[name]["mean"] = statistics.fmean(times)
    if traced_recs:
        for key in {k for r in traced_recs for k in r}:
            run.layers[key] = statistics.fmean(r.get(key, 0.0) for r in traced_recs)
        run.layers.update(counts)
        for cls in LAYER_CLASSES:
            run.layers[f"layers.{cls}.eval_ms"] = statistics.fmean(
                t.get(cls, 0.0) for t in eval_self_ms)
        run.layers["memory.minor_faults_per_step"] = statistics.fmean(step_faults)
        run.layers["trace.overhead_ms"] = (percentile(traced_ms, 50)
                                           - percentile(step_ms, 50))
        run.spans = tracer.spans


WORKLOADS = {
    "train-semgcn": lambda run: train(run, "semgcn"),
    "train-resgcn": lambda run: train(run, "resgcn"),
}
