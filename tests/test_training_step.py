"""One training step as the benchmark runs it: the ops it records on the
tape, and the memory it keeps between steps."""

import json
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import semgcn
from semgcn import autodiff, training
from semgcn.autodiff import Tape
from semgcn.network import VARIANTS, NetworkConfig, build_network
from semgcn.skeleton import build_skeleton
from semgcn.training import Adam, train_step

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class KeptTape(Tape):
    """A tape that remembers the last instance opened, so a test can read
    the tape ``train_step`` opens and closes itself."""

    last = None

    def __enter__(self):
        KeptTape.last = self
        return super().__enter__()


def make_step(variant, channels, blocks, batch, use_bone=False):
    """A closure running one ``train_step``; it returns that step's tape."""
    g = build_skeleton()
    net = build_network(NetworkConfig(variant=variant, channels=channels,
                                      blocks=blocks), g, seed=0)
    opt = Adam(net.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, g.num_joints, 2))
    y = rng.standard_normal((batch, g.num_joints, 3)) * 100.0

    def step():
        with mock.patch.object(training, "Tape", KeptTape):
            train_step(net, opt, x, y, g, use_bone)
        return KeptTape.last

    return step


@pytest.mark.parametrize("variant", ["semgcn", "resgcn"])
def test_every_tape_op_is_a_benchmark_metric(variant):
    # the traced benchmark refuses to report an op kind it does not declare
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    ops = Counter(node.op for node in make_step(variant, 4, 1, 4)().nodes)
    assert ops
    undeclared = sorted(op for op in ops
                        if f"autodiff.tape_nodes.{op}" not in declared)
    assert not undeclared


def test_every_op_kind_has_a_caller():
    # one toy step per trainable configuration; an op kind that none of
    # them records is dead code
    recorded = set(re.findall(r'_maybe_record\("(\w+)"',
                              Path(autodiff.__file__).read_text()))
    configs = [dict(variant=v) for v in VARIANTS] + [
        dict(variant="semgcn", use_bone=True)]
    used = set()
    for config in configs:
        used |= {node.op for node in make_step(channels=4, blocks=1, batch=4,
                                                **config)().nodes}
    assert len(recorded) == 9
    assert used == recorded


# One step's tape at channels 4, one block, batch 4: every graph conv is
# one graph_conv node that keeps only its output, the non-local layer's
# bias and residual are addends of its products, and each batch norm
# applies its ReLU, so splitting a fold back into its own node changes
# these counts and bytes.
TAPE_AT_SMALL_SIZE = {
    "semgcn": ({"matmul": 22, "mul": 12, "add": 8, "relu": 2, "sum": 1,
                "softmax": 4, "batch_norm": 3, "max_over_set": 2,
                "transpose": 2}, 79_664),
    "resgcn": ({"matmul": 4, "batch_norm": 3, "add": 2, "mul": 2,
                "sum": 1}, 18_960),
}


@pytest.mark.parametrize("variant", sorted(TAPE_AT_SMALL_SIZE))
def test_tape_nodes_and_bytes_are_pinned(variant):
    ops, nbytes = TAPE_AT_SMALL_SIZE[variant]
    tape = make_step(variant, 4, 1, 4)()
    assert Counter(node.op for node in tape.nodes) == ops
    assert sum(node.output.data.nbytes for node in tape.nodes) == nbytes


# An eval-mode forward under a tape at the same size: each conv → batch
# norm → ReLU stage is one graph_conv ("matmul") node with the batch norm
# as its epilogue, whose scale and shift are four small ops on (C,)
# tensors, so there is no batch_norm node; the matmul counts are the
# training tape's.
EVAL_TAPE_AT_SMALL_SIZE = {
    "semgcn": ({"matmul": 22, "mul": 16, "add": 13, "relu": 2, "softmax": 4,
                "max_over_set": 2, "transpose": 2}, 70_816),
    "resgcn": ({"matmul": 4, "mul": 6, "add": 7}, 10_112),
}


@pytest.mark.parametrize("variant", sorted(EVAL_TAPE_AT_SMALL_SIZE))
def test_eval_tape_nodes_and_bytes_are_pinned(variant):
    ops, nbytes = EVAL_TAPE_AT_SMALL_SIZE[variant]
    g = build_skeleton()
    net = build_network(NetworkConfig(variant=variant, channels=4, blocks=1),
                        g, seed=0)
    x = np.random.default_rng(0).standard_normal((4, g.num_joints, 2))
    with Tape() as tape:
        out = net.forward(x, train=False)
        assert Counter(node.op for node in tape.nodes) == ops
        assert sum(node.output.data.nbytes for node in tape.nodes) == nbytes
        tape.backward(out.sum())
    # the backward still reaches every parameter, batch norm's included
    assert [name for name, p in net.named_parameters() if p.grad is None] == []


# Three steps after two warm-up steps, in a fresh interpreter: freeing
# large arrays raises glibc's own trim threshold, so a process that has
# run other tests may keep its heap whatever the engine asks for.
FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from test_training_step import make_step
step = make_step("resgcn", 64, 3, 64)
tape = step()
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, sum(n.output.data.nbytes for n in tape.nodes) // 4096)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_steps_reuse_freed_tape_memory():
    src = Path(semgcn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE,
                          str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300)
    faults, tape_pages = map(int, out.stdout.split())
    assert tape_pages > 2000  # 8 MiB, freed at the end of every step
    assert faults < 64, f"{faults} minor faults in 3 steps over a " \
        f"{tape_pages}-page tape"
