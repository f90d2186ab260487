"""Post-training inspection of learned edge weights.

Exports each edge-weighted convolution's row-stochastic weight matrix
and summarizes how much weight each joint contributes to its neighbors,
averaged over the eight block-level layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import Network
from .skeleton import adjacency


class AnalysisError(ValueError):
    pass


@dataclass
class WeightReport:
    joint_names: list[str]
    layer_labels: list[str]
    matrices: list[np.ndarray]              # (K, K), channel-mean if channelwise
    per_channel: dict[str, np.ndarray]      # label -> (D, K, K), channelwise only
    block_layer_indices: list[int]          # entries belonging to residual blocks
    adjacency: np.ndarray


def export_weights(net: Network) -> WeightReport:
    """Evaluate every learned edge-weight matrix; read-only on the network."""
    layers = net.semgconv_layers()
    if not layers:
        raise AnalysisError(
            f"variant {net.config.variant!r} has no semantic masks to export")
    labels, matrices, per_channel, block_idx = [], [], {}, []
    for i, (label, conv) in enumerate(layers):
        s = conv.edge_weights().data
        if s.ndim == 3:
            per_channel[label] = s.copy()
            s = s.mean(axis=0)
        labels.append(label)
        matrices.append(s.copy())
        if label.startswith("block"):
            block_idx.append(i)
    return WeightReport(joint_names=list(net.skeleton.joints),
                        layer_labels=labels, matrices=matrices,
                        per_channel=per_channel, block_layer_indices=block_idx,
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


def report_to_json(report: WeightReport, include_self: bool = False) -> str:
    payload = {
        "joint_names": report.joint_names,
        "layers": [
            {"label": label, "weights": matrix.tolist()}
            for label, matrix in zip(report.layer_labels, report.matrices)
        ],
        "per_channel": {
            label: stack.tolist() for label, stack in report.per_channel.items()
        },
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
