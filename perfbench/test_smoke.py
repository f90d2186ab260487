"""Smoke test of the benchmark at toy size: every declared metric is
emitted, and every correctness check trips on a corrupted output.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from semgcn import Tape  # noqa: E402
from semgcn.network import Network  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.harness import TOY, Run  # noqa: E402

# originals, taken before any test patches them
ORIG = {name: getattr(workloads, name) for name in
        ("pose_loss", "load_checkpoint", "load_dataset", "generate_synthetic")}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--toy")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_across_seeds():
    counts = []
    for seed in ("1", "2"):
        out = _bench("--workload", "train-semgcn", "--seed", seed, "--seconds",
                     "0.3", "--trace", "1", "--toy")
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.startswith("autodiff.tape_") or k == "network.params"
                       or k == "autodiff.matmul_gflop"})
    assert counts[0] == counts[1]
    assert counts[0]["autodiff.tape_nodes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench("--workload", "train-resgcn", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


# ---------------------------------------------------------------------------
# each check trips on a deliberately corrupted output


def _run_toy(tmp_path) -> Run:
    run = Run(seed=5, seconds=0.3, size=TOY, tmp=tmp_path, trace=False)
    workloads.train(run, "semgcn")
    return run


def _nan_loss(pred, gt, g, use_bone=False):
    loss = ORIG["pose_loss"](pred, gt, g, use_bone)
    loss.data = np.full_like(loss.data, np.nan)
    return loss


class _Ascent(workloads.Adam):
    def step(self):
        self.lr = -abs(self.lr)
        super().step()


def _skewed_backward(orig):
    def backward(self, root, grad=None):
        orig(self, root, grad)
        seen = set()
        for node in self.nodes:
            for t in node.inputs:
                if t.grad is not None and id(t) not in seen:
                    seen.add(id(t))
                    t.grad *= 1.01
    return backward


def _eval_outputs(corrupt):
    orig = Network.forward

    def forward(self, p2d, train=False, skip_nonlocal=False):
        out = orig(self, p2d, train, skip_nonlocal)
        if not train:
            out.data = corrupt(out.data)
        return out
    return forward


def _nudged_checkpoint(path, skeleton=None):
    net, meta = ORIG["load_checkpoint"](path, skeleton)
    p = net.parameters()[0]
    p.data = p.data.copy()
    p.data.flat[0] = np.nextafter(p.data.flat[0], np.inf)
    return net, meta


def _replace_sample(ds, i, joints3d):
    ds.samples[i] = dataclasses.replace(ds.samples[i], joints3d=joints3d)
    return ds


def _nudged_dataset(path):
    ds = ORIG["load_dataset"](path)
    j = ds.samples[0].joints3d.copy()
    j[1, 0] = np.nextafter(j[1, 0], np.inf)
    return _replace_sample(ds, 0, j)


def _stretched_generate(*args, **kwargs):
    ds = ORIG["generate_synthetic"](*args, **kwargs)
    return _replace_sample(ds, 0, ds.samples[0].joints3d * 1.001)


def _n_dependent_generate(n, *args, **kwargs):
    ds = ORIG["generate_synthetic"](n, *args, **kwargs)
    for i in range(len(ds)):
        _replace_sample(ds, i, ds.samples[i].joints3d + n * 1e-6)
    return ds


CORRUPTIONS = {
    "train.loss_finite": (workloads, "pose_loss", _nan_loss),
    "train.loss_decreases": (workloads, "Adam", _Ascent),
    "train.directional_derivative": (
        Tape, "backward", _skewed_backward(Tape.backward)),
    "eval.outputs_finite": (
        Network, "forward",
        _eval_outputs(lambda d: np.where(d > d.mean(), np.nan, d))),
    "eval.b1_matches_batch": (
        Network, "forward",
        _eval_outputs(lambda d: d * (1 + 1e-6) if d.shape[0] == 1 else d)),
    "eval.checkpoint_bitwise": (workloads, "load_checkpoint", _nudged_checkpoint),
    "data.roundtrip_bitwise": (workloads, "load_dataset", _nudged_dataset),
    "data.bone_lengths": (workloads, "generate_synthetic", _stretched_generate),
    "data.prefix_independent_of_n": (
        workloads, "generate_synthetic", _n_dependent_generate),
}


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_check_trips_on_corruption(check, tmp_path, monkeypatch):
    target, attr, replacement = CORRUPTIONS[check]
    monkeypatch.setattr(target, attr, replacement)
    run = _run_toy(tmp_path)
    assert run.failures[check] > 0, dict(run.failures)
    assert run.failed > 0


def test_uncorrupted_run_passes(tmp_path):
    run = _run_toy(tmp_path)
    assert run.failed == 0, dict(run.failures)
