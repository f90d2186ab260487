"""Finite-difference verification of every layer family's backward pass.

Runs at reduced width (16 nodes, 8 channels) so a full sweep over all
parameters stays fast.  Every case is built and checked in double
(``oracle_precision``), whatever the compute dtype.  Used by the CLI
``grad-check`` command and the acceptance suite.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    batch_norm,
    grad_check,
    graph_conv,
    oracle_precision,
)
from .layers import BatchNormNodes, NonLocalBlock, SemGConv, VanillaGConv
from .skeleton import DEFAULT_NODE_GROUPS, adjacency, build_skeleton, normalize_adjacency
from .training import pose_loss

TOLERANCE = 1e-4
_CHANNELS = 8
_BATCH = 2


@dataclass(frozen=True)
class GradCheckRow:
    name: str
    seed: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _layer_case(layer, x_shape: tuple[int, ...], rng: np.random.Generator,
                train: bool = False):
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    params = [p for _, p in layer.named_parameters()]
    # Nudge learnable logits and the zero output map off their all-zero
    # init so the check exercises a generic point.
    for p in params:
        if not p.data.any():
            p.data[...] = rng.standard_normal(p.data.shape) * 0.1
    # Project with fixed random weights: a plain sum is blind to directions
    # the layer's output cannot move in (batch norm output sums to beta).
    # Each layer checked here keeps the input's width.
    probe = rng.standard_normal(x_shape)

    def f(*_):
        return layer.forward(x, train=train)

    return f, [x] + params, probe


def _random_bn(rng: np.random.Generator) -> BatchNormNodes:
    bn = BatchNormNodes(_CHANNELS)
    bn.gamma.data[...] = rng.standard_normal(_CHANNELS)
    bn.beta.data[...] = rng.standard_normal(_CHANNELS) * 0.1
    return bn


def _skip_stage_case(propagation: np.ndarray, x_shape: tuple[int, ...],
                     rng: np.random.Generator):
    """A residual block's second stage: conv → batch norm → ReLU, then
    the skip added in the batch norm's node."""
    conv = VanillaGConv(_CHANNELS, _CHANNELS, propagation, rng)
    bn = _random_bn(rng)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    skip = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    probe = rng.standard_normal(x_shape)

    def f(*_):
        return batch_norm(conv(x, True), bn.gamma, bn.beta, bn.state, skip)

    # not the conv bias: the batch mean cancels it, so its exact gradient
    # is 0 and a relative error would measure rounding alone
    return f, [x, skip, conv.w, bn.gamma, bn.beta], probe


def _prologue_stage_case(adj: np.ndarray, x_shape: tuple[int, ...],
                         rng: np.random.Generator):
    """A residual block's first batch norm → ReLU → second conv: one
    graph_conv node with a train-mode batch-norm prologue, over the edge
    logits of an edge-weighted conv."""
    conv = SemGConv(_CHANNELS, _CHANNELS, adj, rng)
    conv.mask.data[...] = rng.standard_normal(conv.mask.shape) * 0.1
    conv.b.data[...] = rng.standard_normal(_CHANNELS) * 0.1
    bn = _random_bn(rng)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    probe = rng.standard_normal(x_shape)

    def f(*_):
        return graph_conv(x, conv.w, conv.b, *conv.graph(),
                          norm=(bn.gamma, bn.beta, bn.state))

    return f, [x, conv.w, conv.mask, conv.b, bn.gamma, bn.beta], probe


def _prologue_nonlocal_case(k: int, x_shape: tuple[int, ...],
                            rng: np.random.Generator, skip: bool):
    """A batch norm → ReLU → non-local layer as one non_local node with a
    train-mode batch-norm prologue: the input stage's, or with ``skip``
    a residual block's second batch norm, its skip and its non-local
    layer."""
    layer = NonLocalBlock(_CHANNELS, DEFAULT_NODE_GROUPS, k, rng)
    _, inputs, probe = _layer_case(layer, x_shape, rng)
    bn = _random_bn(rng)
    skips = [Tensor(rng.standard_normal(x_shape))] if skip else []

    def fused(*_):
        return layer.after_batch_norm(inputs[0], bn, *skips)

    return fused, inputs + skips + [bn.gamma, bn.beta], probe


def _pose_loss_case(g, rng: np.random.Generator):
    pred = Tensor(rng.standard_normal((_BATCH, g.num_joints, 3)),
                  requires_grad=True)
    gt = rng.standard_normal((_BATCH, g.num_joints, 3))

    def f(*_):
        return pose_loss(pred, gt, g, use_bone=True)

    return f, [pred]


def run_grad_checks(seeds=range(5)) -> list[GradCheckRow]:
    g = build_skeleton()
    adj = adjacency(g)
    norm = normalize_adjacency(adj)
    k = g.num_joints
    x_shape = (_BATCH, k, _CHANNELS)
    cases = {
        "vanilla_gconv": lambda rng: _layer_case(
            VanillaGConv(_CHANNELS, _CHANNELS, norm, rng), x_shape, rng),
        "semgconv": lambda rng: _layer_case(
            SemGConv(_CHANNELS, _CHANNELS, adj, rng), x_shape, rng),
        "nonlocal": lambda rng: _layer_case(
            NonLocalBlock(_CHANNELS, DEFAULT_NODE_GROUPS, k, rng), x_shape, rng),
        "batch_norm": lambda rng: _layer_case(
            BatchNormNodes(_CHANNELS), x_shape, rng, train=True),
        "conv_bn_relu_skip": lambda rng: _skip_stage_case(norm, x_shape, rng),
        "bn_relu_conv": lambda rng: _prologue_stage_case(adj, x_shape, rng),
        "bn_relu_nonlocal": lambda rng: _prologue_nonlocal_case(
            k, x_shape, rng, skip=False),
        "bn_relu_skip_nonlocal": lambda rng: _prologue_nonlocal_case(
            k, x_shape, rng, skip=True),
        "pose_loss": lambda rng: _pose_loss_case(g, rng),
    }
    rows = []
    for seed in seeds:
        for name, make_case in cases.items():
            # one stream per case, so no row's draws depend on which other
            # rows exist
            rng = np.random.default_rng(
                [seed, 0xC0FFEE, zlib.crc32(name.encode())])
            with oracle_precision():
                error = grad_check(*make_case(rng))
            rows.append(GradCheckRow(name, seed, error))
    return rows


def format_table(rows: list[GradCheckRow]) -> str:
    lines = [f"{'operation':24s} {'seed':>4s} {'max rel err':>12s}  result"]
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        lines.append(f"{row.name:24s} {row.seed:4d} {row.max_rel_error:12.3e}  "
                     f"< {TOLERANCE:g}: {verdict}")
    return "\n".join(lines)
