"""Per-layer tracing from outside the engine.

Each layer instance's ``forward`` is replaced by a wrapper that records
one span per call: step id, span id, parent span, layer name and class,
start, end, and the tape length at both ends, so every tape node can be
attributed to the innermost layer that emitted it.  Before a traced
backward pass each ``TapeNode.vjp`` is wrapped to time the backward pass
by op and by layer.  Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYER_CLASSES = ("SemGConv", "VanillaGConv", "NonLocalBlock", "BatchNormNodes",
                 "ResidualGConvBlock")

# span fields
STEP, SID, PARENT, NAME, CLS, T0, T1, LO, HI = range(9)


def named_layers(net):
    """(name, layer) for every layer instance of a Network, parents first."""
    yield "input.conv", net.input_conv
    yield "input.bn", net.input_bn
    if net.input_nonlocal is not None:
        yield "input.nonlocal", net.input_nonlocal
    for i, block in enumerate(net.blocks):
        yield f"blocks.{i}", block
        for part in ("conv1", "bn1", "conv2", "bn2", "nonlocal_layer"):
            layer = getattr(block, part)
            if layer is not None:
                yield f"blocks.{i}.{part}", layer
    yield "output.conv", net.output_conv


class Tracer:
    """Collects spans while ``enabled``; ``tape`` is the tape being traced."""

    def __init__(self):
        self.enabled = False
        self.tape = None
        self.step = 0
        self.spans: list[list] = []
        self._stack: list[int] = []

    def instrument(self, net) -> None:
        for name, layer in named_layers(net):
            layer.forward = self._wrap(name, type(layer).__name__, layer.forward)

    def _wrap(self, name, cls, inner):
        def forward(x, train=False):
            if not self.enabled:
                return inner(x, train)
            with self.span(name, cls):
                return inner(x, train)
        return forward

    def _tape_len(self) -> int:
        return len(self.tape.nodes) if self.tape is not None else 0

    @contextmanager
    def span(self, name: str, cls: str):
        rec = [self.step, len(self.spans), self._stack[-1] if self._stack else -1,
               name, cls, 0.0, 0.0, self._tape_len(), 0]
        self.spans.append(rec)
        self._stack.append(rec[SID])
        rec[T0] = perf_counter()
        try:
            yield
        finally:
            rec[T1] = perf_counter()
            rec[HI] = self._tape_len()
            self._stack.pop()


def write_spans(spans: list[list], path: Path) -> None:
    keys = ("step", "id", "parent", "name", "class", "start", "end",
            "tape_lo", "tape_hi")
    with open(path, "w") as fh:
        json.dump([dict(zip(keys, s)) for s in spans], fh)


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Summed self time per layer class: span minus its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    out = defaultdict(float)
    for s in spans:
        out[s[CLS]] += (s[T1] - s[T0] - child[s[SID]]) * 1e3
    return out


def node_owners(spans: list[list], n_nodes: int) -> list[str]:
    """Class of the innermost span that emitted each tape node."""
    owner = ["-"] * n_nodes
    for s in spans:  # entry order: a child overwrites its parent's range
        for i in range(s[LO], s[HI]):
            owner[i] = s[CLS]
    return owner


def timed_vjps(nodes) -> list[float]:
    """Wrap each node's vjp to record its time (s) in the returned list."""
    times = [0.0] * len(nodes)
    for i, node in enumerate(nodes):
        node.vjp = _timed(node.vjp, times, i)
    return times


def _timed(vjp, times, i):
    def wrapper(g):
        t0 = perf_counter()
        out = vjp(g)
        times[i] = perf_counter() - t0
        return out
    return wrapper
