"""Run state shared by the workloads: sizes, outcome counters, timers and
the environment record.

The end-to-end timings (set-up, training steps, validation passes) are
process CPU time, user plus system, from ``time.process_time``.  The run
is single-threaded (BLAS is pinned to one thread), so on an idle machine
this equals wall time.  Unlike wall time it leaves out the time the
process waited for a CPU (on a shared virtual machine, the host running
another guest on the vCPU, shown as steal in /proc/stat), which spread
wall-clock figures of identical runs past the benchmark's bounds.  The
report also prints percentiles of the wall-clock step times.  Per-layer
spans use wall time.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

MIB = float(1 << 20)


@dataclass(frozen=True)
class Size:
    """Problem size of the workloads; ``PAPER`` is the published setup."""

    channels: int
    blocks: int
    batch: int
    train_samples: int   # generated per set-up, split 80/10/10
    fixed_epochs: int    # val_mpjpe_mm: best val MPJPE of these epochs
    check_batch: int     # batch of the directional-derivative check
    setup_repeats: int   # one before the timed region, the rest after it,
                         # so that they meet more of the machine's states


PAPER = Size(channels=128, blocks=4, batch=64, train_samples=800,
             fixed_epochs=8, check_batch=16, setup_repeats=9)
TOY = Size(channels=16, blocks=1, batch=8, train_samples=80, fixed_epochs=2,
           check_batch=4, setup_repeats=2)


class Run:
    """One benchmark run: its options, operation outcomes and metrics.

    ``attempted`` counts timed operations plus once-per-run checks; an
    operation fails when it raises or one of its checks fails.
    """

    def __init__(self, seed: int, seconds: float, size: Size, tmp: Path,
                 trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tmp = tmp
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.e2e: dict[str, float] = {}
        self.report: dict[str, dict[str, float]] = {}   # ms, report lines only
        self.layers: dict[str, float] = {}
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.setup_times: list[float] = []
        self.spans: list = []

    def operation(self, failed_checks=()) -> None:
        self.attempted += 1
        if failed_checks:
            self.failed += 1
            self.failures.update(failed_checks)

    def check(self, name: str, ok: bool) -> None:
        """Record one check outside the timed operations."""
        self.operation(() if ok else (name,))

    @contextmanager
    def timed(self, key: str):
        """Record the wall time of the block in ms under ``key``."""
        t0 = perf_counter()
        yield
        self.calls[key].append((perf_counter() - t0) * 1e3)

    def setup(self, make):
        """Run and time one set-up; ``setup_s`` is the median of all."""
        t0 = process_time()
        state = make()
        self.setup_times.append(process_time() - t0)
        return state

    def finish(self) -> None:
        self.e2e["setup_s"] = statistics.median(self.setup_times)
        self.e2e["peak_rss_mb"] = peak_rss_mib()
        for key, values in self.calls.items():
            self.layers[key] = statistics.fmean(values)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)),
                         "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return int(getter())
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
