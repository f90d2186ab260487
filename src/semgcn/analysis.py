"""Post-training inspection of learned edge weights.

Exports each edge-weighted convolution's row-stochastic weight matrix,
with how far it has moved from uniform neighbour averaging, and
summarizes how much weight each joint contributes to its neighbors,
averaged over the block-level layers (two per residual block).  Labels
are the layers' checkpoint names (``input.conv``, ``blocks.0.conv1``, ...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .layers import SemGConv
from .network import Network
from .skeleton import adjacency


class AnalysisError(ValueError):
    pass


@dataclass
class WeightReport:
    joint_names: list[str]
    layer_labels: list[str]
    matrices: list[np.ndarray]              # (K, K) row-stochastic, per layer
    block_layer_indices: list[int]          # entries belonging to residual blocks
    adjacency: np.ndarray


def export_weights(net: Network) -> WeightReport:
    """Evaluate every learned edge-weight matrix; read-only on the network."""
    layers = [(name, layer) for name, layer in net.named_layers()
              if isinstance(layer, SemGConv)]
    if not layers:
        raise AnalysisError(
            f"variant {net.config.variant!r} has no semantic masks to export")
    labels = [label for label, _ in layers]
    return WeightReport(joint_names=list(net.skeleton.joints),
                        layer_labels=labels,
                        matrices=[conv.edge_weights() for _, conv in layers],
                        block_layer_indices=[i for i, label in enumerate(labels)
                                             if label.startswith("blocks.")],
                        adjacency=adjacency(net.skeleton))


def average_joint_weight(report: WeightReport,
                         include_self: bool = False) -> np.ndarray:
    """Mean outgoing contribution of each joint across the block layers.

    For joint j this averages S[i, j] over the receiving neighbors i of j
    (self-loops excluded unless ``include_self``) and over the block-level
    layers.
    """
    if not report.block_layer_indices:
        raise AnalysisError("report has no block-level layers to average")
    a = report.adjacency
    k = a.shape[0]
    values = np.zeros(k)
    for j in range(k):
        receivers = [i for i in range(k)
                     if a[i, j] == 1.0 and (include_self or i != j)]
        contributions = [report.matrices[li][i, j]
                         for li in report.block_layer_indices
                         for i in receivers]
        values[j] = float(np.mean(contributions))
    return values


def uniform_deviation(report: WeightReport) -> tuple[np.ndarray, np.ndarray]:
    """Each layer's largest and mean deviation from uniform neighbour
    averaging, ``|S[i, j] - 1/deg(i)|`` over the skeleton's off-diagonal
    edges (deg counts the self-loop): exactly 0 at zero logits."""
    a = report.adjacency
    uniform = a / a.sum(axis=1, keepdims=True)
    edges = (a == 1.0) & ~np.eye(a.shape[0], dtype=bool)
    deviation = np.abs(np.stack(report.matrices)[:, edges] - uniform[edges])
    return deviation.max(axis=1), deviation.mean(axis=1)


def report_to_json(report: WeightReport, include_self: bool = False) -> str:
    largest, mean = uniform_deviation(report)
    payload = {
        "joint_names": report.joint_names,
        "layers": [
            {"label": label, "weights": matrix.tolist(),
             "max_deviation_from_uniform": float(dev_max),
             "mean_deviation_from_uniform": float(dev_mean)}
            for label, matrix, dev_max, dev_mean in zip(
                report.layer_labels, report.matrices, largest, mean)
        ],
        "block_layer_labels": [report.layer_labels[i]
                               for i in report.block_layer_indices],
        "average_joint_weight": average_joint_weight(
            report, include_self=include_self).tolist(),
        "aggregation": ("outgoing-mean-incl-self" if include_self
                        else "outgoing-mean-excl-self"),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def joint_weight_csv(report: WeightReport, include_self: bool = False) -> str:
    weights = average_joint_weight(report, include_self=include_self)
    lines = ["joint,average_weight"]
    lines += [f"{name},{w!r}" for name, w in zip(report.joint_names, weights)]
    return "\n".join(lines) + "\n"
