"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload train-semgcn --seed 1 --seconds 50 --trace 0

One workload runs in this process on inputs made from ``--seed``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  ``--toy`` shrinks
every size for the smoke test (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# On a 2-vCPU machine with steal time, a second BLAS thread made the step
# time p90 spread across runs 2-3x wider for a ~10% faster median.
BLAS_THREADS = "1"
# Which arrays the allocator serves from recycled heap memory, and so how
# many pages each training step faults in, follows the order in which
# arrays are freed, and that follows str hash order: over random hash
# seeds train-resgcn took 4.1k, 7.9k or 13.3k minor faults per step, and
# its step-time median moved ~15% with them from one process to the next.
# One fixed seed gives every run the same order.
HASH_SEED = "0"


def _pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small width and few steps, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "semgcn" / "__init__.py").is_file():
        return _fail(f"no semgcn sources under {src}")
    _pin_blas_threads()
    sys.path[:0] = [str(src), str(ROOT)]
    import semgcn
    if Path(semgcn.__file__).resolve().parent != (src / "semgcn").resolve():
        return _fail(f"imported semgcn from {semgcn.__file__}, not from {src}")

    from perfbench.harness import PAPER, TOY, Run, environment
    from perfbench.workloads import WORKLOADS

    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(args.seed, args.seconds, TOY if args.toy else PAPER, tmp,
              bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.finish()
    result = report(run, spec, args, environment(ROOT))
    print(json.dumps(result))
    return 0


def report(run, spec: dict, args, env: dict) -> dict:
    """Print the human-readable report; return the result object."""
    from perfbench.tracing import write_spans

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = run.layers if args.trace else run.e2e
    names = {m["name"] for m in declared}
    stray = sorted(set(measured) - names)
    if stray:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {stray}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    correct = run.failed == 0
    for m in declared:
        value = measured.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(f"  {m['name']:40s} missing")
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:14.4f} {m['unit']}")
    if not args.trace:
        for name, values in run.report.items():
            print(f"  {name}: " + ", ".join(f"{k} {v:.2f} ms" for k, v in values.items()))
    if args.trace and "training.backward_ms" in measured:
        parts = sum(v for k, v in measured.items() if k.startswith("autodiff.bwd_ms."))
        parts += measured["autodiff.accumulate_ms"]
        print(f"  backward closure: sum(bwd_ms.<op>) + accumulate_ms = {parts:.3f} ms"
              f" of training.backward_ms = {measured['training.backward_ms']:.3f} ms")
    if args.trace and run.spans:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_spans(run.spans, path)
        print(f"  spans: {len(run.spans)} written to {path.relative_to(ROOT)}")
    for name, count in sorted(run.failures.items()):
        print(f"  FAILED {name}: {count}")
    print(f"attempted {run.attempted}  failed {run.failed}  correct {correct}")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
