"""The 16-joint human skeleton and its graph structures.

The skeleton is a fixed tree rooted at the pelvis: pelvis to both hips
and the spine, limbs as two-bone chains, spine to neck and both
shoulders, neck to head.  The adjacency defined here is the support of
the masked softmax (``autodiff.edge_softmax``) that forms an
edge-weighted convolution's edge weights inside its ``graph_conv`` node;
``mask_logit_bias`` turns it into that softmax's additive support.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

JOINT_NAMES = (
    "pelvis",
    "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle",
    "spine", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
)

_PARENTS = {
    1: 0, 2: 1, 3: 2,
    4: 0, 5: 4, 6: 5,
    7: 0, 8: 7, 9: 8,
    10: 7, 11: 10, 12: 11,
    13: 7, 14: 13, 15: 14,
}

# Anthropometrically plausible segment lengths in millimeters, keyed by
# child joint.  Any positive values satisfy the math; these just make the
# synthetic poses look human-sized.
_BONE_MM = {
    "r_hip": 130.0, "r_knee": 450.0, "r_ankle": 440.0,
    "l_hip": 130.0, "l_knee": 450.0, "l_ankle": 440.0,
    "spine": 480.0, "neck": 115.0, "head": 115.0,
    "l_shoulder": 150.0, "l_elbow": 280.0, "l_wrist": 250.0,
    "r_shoulder": 150.0, "r_elbow": 280.0, "r_wrist": 250.0,
}

# Pairwise node grouping used by the non-local layers to pool 16 joints
# down to 8: adjacent or left/right symmetric joints share a group.
DEFAULT_NODE_GROUPS = (
    (0, 7),    # pelvis, spine
    (8, 9),    # neck, head
    (1, 4),    # r_hip, l_hip
    (2, 3),    # r_knee, r_ankle
    (5, 6),    # l_knee, l_ankle
    (10, 13),  # l_shoulder, r_shoulder
    (11, 12),  # l_elbow, l_wrist
    (14, 15),  # r_elbow, r_wrist
)

MASK_SENTINEL = -1e9  # additive stand-in for -inf on non-edges


class SkeletonError(ValueError):
    """The skeleton definition violates a structural invariant."""


@dataclass(frozen=True)
class SkeletonGraph:
    """Joint names, tree structure, and canonical bone lengths (mm)."""

    joints: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # (parent, child), one per non-root joint
    parent: tuple[int, ...]             # parent index per joint, -1 at the root
    root: int
    canonical_bone_lengths: tuple[float, ...]  # aligned with edges

    @property
    def num_joints(self) -> int:
        return len(self.joints)

    def validate(self) -> None:
        k = len(self.joints)
        if k != 16:
            raise SkeletonError(f"expected 16 joints, got {k}")
        if len(self.edges) != k - 1:
            raise SkeletonError(f"expected {k - 1} edges, got {len(self.edges)}")
        if len(self.parent) != k or self.parent[self.root] != -1:
            raise SkeletonError("parent map inconsistent with root")
        if any(length <= 0 for length in self.canonical_bone_lengths):
            raise SkeletonError("every canonical bone length must be positive")
        seen = {self.root}
        for p, c in self.edges:
            if self.parent[c] != p:
                raise SkeletonError(f"edge ({p},{c}) disagrees with parent map")
            if c in seen:
                raise SkeletonError(f"joint {c} reached twice; not a tree")
            seen.add(c)
        if len(seen) != k:
            raise SkeletonError("skeleton graph is not connected")

    def to_json(self) -> str:
        payload = {
            "joints": list(self.joints),
            "parent": list(self.parent),
            "root": self.root,
            "canonical_bone_lengths_mm": list(self.canonical_bone_lengths),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def build_skeleton() -> SkeletonGraph:
    """The fixed 16-joint skeleton rooted at the pelvis."""
    parent = tuple(_PARENTS.get(i, -1) for i in range(len(JOINT_NAMES)))
    edges = tuple((parent[c], c) for c in range(len(JOINT_NAMES)) if parent[c] >= 0)
    lengths = tuple(_BONE_MM[JOINT_NAMES[c]] for _, c in edges)
    g = SkeletonGraph(joints=JOINT_NAMES, edges=edges, parent=parent, root=0,
                      canonical_bone_lengths=lengths)
    g.validate()
    return g


def skeleton_hash(g: SkeletonGraph) -> str:
    return hashlib.sha256(g.to_json().encode("utf-8")).hexdigest()


def adjacency(g: SkeletonGraph) -> np.ndarray:
    """Symmetric binary adjacency with self-loops, shape (K, K)."""
    k = g.num_joints
    a = np.eye(k)
    for p, c in g.edges:
        a[p, c] = 1.0
        a[c, p] = 1.0
    return a


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric normalization D^(-1/2) A D^(-1/2) with self-loop degrees."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SkeletonError(f"adjacency must be square, got {a.shape}")
    deg = a.sum(axis=1)
    if (deg <= 0).any():
        raise SkeletonError("zero-degree node cannot be normalized")
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def mask_logit_bias(a: np.ndarray) -> np.ndarray:
    """Additive sentinel that removes non-edges from a softmax's support."""
    return (1.0 - np.asarray(a)) * MASK_SENTINEL
