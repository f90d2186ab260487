"""Synthetic pose data, preprocessing, the dataset file format, and MPJPE.

The generator poses the canonical skeleton by forward kinematics with
per-joint rotations drawn inside anatomically bounded ranges, places the
subject in front of one fixed pinhole camera, and projects.  2D inputs
are exact projections of the 3D targets (plus optional Gaussian detector
noise), so the lifting problem is well posed by construction.  Poses,
their files and MPJPE are float64 whatever the engine's compute dtype.

Each sample has its own random stream, ``default_rng([seed, i])``, read
in a fixed order: the joint angles in ``_ANGLE_RANGES`` order, the x, y
and depth placement, then the 2D noise if any.  A sample is therefore the
same whatever the number of samples drawn with it.

A ``.poses`` file is a ``container`` whose header holds exactly
``version``, ``count``, ``joints``, ``split`` and ``skeleton_hash``, and
whose payload is the (N, K, 5) block of x,y,z,u,v per joint.  A loader
accepts only what its writer writes, so no older layout is converted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import container
from .skeleton import JOINT_NAMES, SkeletonGraph, skeleton_hash

FORMAT_VERSION = 1
_VALUES_PER_JOINT = 5  # x,y,z millimeters then u,v projected
_HEADER = {"count": int, "joints": int, "split": str, "skeleton_hash": str}

# The one pinhole camera: focal length in projected units, and the uniform
# placement of the subject's root, in mm, along and across the optical axis.
FOCAL = 1000.0
DEPTH_RANGE = (4000.0, 6000.0)
LATERAL_RANGE = 300.0


class DatasetError(ValueError):
    """Malformed dataset file or violated dataset invariant."""


@dataclass(frozen=True)
class PoseSample:
    joints3d: np.ndarray  # (K, 3) mm, camera coordinates
    joints2d: np.ndarray  # (K, 2) projected units


@dataclass
class PoseDataset:
    samples: list[PoseSample]
    split: str
    skeleton_hash: str

    def __len__(self) -> int:
        return len(self.samples)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (N, K, 3) and (N, K, 2) arrays."""
        j3 = np.stack([s.joints3d for s in self.samples])
        j2 = np.stack([s.joints2d for s in self.samples])
        return j3, j2


# Rest-pose direction of each bone (unit vector from parent to child) in a
# y-up, camera-facing frame: legs down, torso up, arms out in a T pose.
_REST_DIRECTIONS = {
    "r_hip": (-1, 0, 0), "r_knee": (0, -1, 0), "r_ankle": (0, -1, 0),
    "l_hip": (1, 0, 0), "l_knee": (0, -1, 0), "l_ankle": (0, -1, 0),
    "spine": (0, 1, 0), "neck": (0, 1, 0), "head": (0, 1, 0),
    "l_shoulder": (1, 0, 0), "l_elbow": (1, 0, 0), "l_wrist": (1, 0, 0),
    "r_shoulder": (-1, 0, 0), "r_elbow": (-1, 0, 0), "r_wrist": (-1, 0, 0),
}

# Sampled joint rotation ranges, degrees: (axis, low, high) triples.
# Hinges (knees, elbows) bend one way only, which breaks mirror-depth
# ambiguity and gives the 2D-to-3D mapping a learnable prior.
_ANGLE_RANGES = {
    "pelvis": (("y", 0.0, 360.0),),
    "r_hip": (("x", -60.0, 60.0), ("z", -60.0, 60.0)),
    "l_hip": (("x", -60.0, 60.0), ("z", -60.0, 60.0)),
    "r_knee": (("x", 0.0, 120.0),),
    "l_knee": (("x", 0.0, 120.0),),
    "spine": (("x", -30.0, 30.0), ("z", -30.0, 30.0)),
    "neck": (("x", -30.0, 30.0), ("z", -30.0, 30.0)),
    "l_shoulder": (("x", -60.0, 60.0), ("z", -60.0, 60.0)),
    "r_shoulder": (("x", -60.0, 60.0), ("z", -60.0, 60.0)),
    "l_elbow": (("z", 0.0, 120.0),),
    "r_elbow": (("z", -120.0, 0.0),),
}

# Rotation plane (i, j) of each axis: R[i, i] = R[j, j] = cos, R[i, j] = -sin
# and R[j, i] = sin, with a 1 on the axis itself.
_PLANES = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}


def _axis_rotations(axis: str, degrees: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotations about one axis, one per angle in ``degrees``."""
    t = np.radians(degrees)
    c, s = np.cos(t), np.sin(t)
    i, j = _PLANES[axis]
    rot = np.zeros((len(t), 3, 3))
    rot[:, 3 - i - j, 3 - i - j] = 1.0
    rot[:, i, i] = rot[:, j, j] = c
    rot[:, i, j] = -s
    rot[:, j, i] = s
    return rot


def project(joints3d: np.ndarray) -> np.ndarray:
    """Pinhole projection (x * f / z, y * f / z) with f = ``FOCAL``."""
    z = joints3d[..., 2:3]
    if (z <= 0).any():
        raise DatasetError("cannot project joints at or behind the camera")
    return joints3d[..., :2] * (FOCAL / z)


def generate_synthetic(n: int, seed: int, noise_sigma: float = 0.0, *,
                       skeleton: SkeletonGraph | None = None) -> PoseDataset:
    """Draw ``n`` posed-and-projected samples, deterministic in ``seed``.

    Sample ``i`` draws from its own ``default_rng([seed, i])``: first the
    joint angles in ``_ANGLE_RANGES`` order, then the x, y and depth
    placement, then the (K, 2) detector noise when ``noise_sigma > 0``.
    So sample ``i`` does not depend on ``n``: the first ``m`` samples of
    any larger draw are the ``m`` samples of this one.  Forward kinematics
    then runs once over all samples, one step per skeleton edge.
    """
    if n < 1:
        raise DatasetError("need at least one sample")
    if skeleton is None:
        from .skeleton import build_skeleton
        skeleton = build_skeleton()
    k = skeleton.num_joints

    axes = [(JOINT_NAMES.index(name), axis)
            for name, ranges in _ANGLE_RANGES.items() for axis, _, _ in ranges]
    # the angle ranges, then the x, y and depth placement ranges
    lows, highs = np.array(
        [(low, high) for ranges in _ANGLE_RANGES.values() for _, low, high in ranges]
        + [(-LATERAL_RANGE, LATERAL_RANGE)] * 2 + [DEPTH_RANGE]).T
    # one unit draw per sample, mapped to the ranges after the loop as
    # Generator.uniform maps it: low + (high - low) * u
    draws = np.empty((n, len(lows)))
    noise = np.empty((n, k, 2))
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        rng.random(out=draws[i])
        if noise_sigma > 0:
            noise[i] = rng.normal(0.0, noise_sigma, size=(k, 2))
    draws = lows + (highs - lows) * draws
    angles, placement = draws[:, :len(axes)], draws[:, len(axes):]

    # Arrays are joint-major, so each joint's (N, ...) stack is contiguous.
    local = np.broadcast_to(np.eye(3), (k, n, 3, 3)).copy()
    for column, (j, axis) in enumerate(axes):
        local[j] = local[j] @ _axis_rotations(axis, angles[:, column])
    pos = np.zeros((k, n, 3))
    rot = np.empty((k, n, 3, 3))
    rot[skeleton.root] = local[skeleton.root]
    # edges are in parent-before-child order
    for (p, c), length in zip(skeleton.edges, skeleton.canonical_bone_lengths):
        offset = np.asarray(_REST_DIRECTIONS[skeleton.joints[c]],
                            dtype=np.float64) * length
        pos[c] = pos[p] + rot[p] @ offset
        rot[c] = rot[p] @ local[c]

    joints3d = pos.transpose(1, 0, 2) + placement[:, None, :]
    joints2d = project(joints3d)
    if noise_sigma > 0:
        joints2d = joints2d + noise
    joints3d.setflags(write=False)
    joints2d.setflags(write=False)
    samples = [PoseSample(joints3d=a, joints2d=b)
               for a, b in zip(joints3d, joints2d)]
    return PoseDataset(samples=samples, split="all",
                       skeleton_hash=skeleton_hash(skeleton))


def split_dataset(ds: PoseDataset) -> tuple[PoseDataset, PoseDataset, PoseDataset]:
    """80/10/10 split by index order (stable across tools, no reshuffle)."""
    n = len(ds)
    if n < 10:
        raise DatasetError(f"need at least 10 samples to split, got {n}")
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    cuts = [(0, n_train, "train"), (n_train, n_train + n_val, "val"),
            (n_train + n_val, n, "test")]
    return tuple(replace(ds, samples=ds.samples[lo:hi], split=tag)
                 for lo, hi, tag in cuts)


def centered_arrays(ds: PoseDataset, root: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Root-centered (N, K, 2) inputs and (N, K, 3) targets for training."""
    j3, j2 = ds.arrays()
    return (j2 - j2[:, root:root + 1, :], j3 - j3[:, root:root + 1, :])


def mpjpe(pred: np.ndarray, gt: np.ndarray, root: int = 0) -> float:
    """Mean per-joint position error in millimeters after root alignment."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise DatasetError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    pred = pred - pred[:, root:root + 1, :]
    gt = gt - gt[:, root:root + 1, :]
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


# ---------------------------------------------------------------------------
# file format (see the module docstring)


def save_dataset(ds: PoseDataset, path) -> None:
    if len(ds) == 0:
        raise DatasetError("refusing to save an empty dataset")
    header = {
        "version": FORMAT_VERSION,
        "count": len(ds),
        "joints": len(JOINT_NAMES),
        "split": ds.split,
        "skeleton_hash": ds.skeleton_hash,
    }
    container.write(path, header, [np.concatenate(ds.arrays(), axis=-1)])


def load_dataset(path) -> PoseDataset:
    header, payload, _ = container.read(path, ("version", FORMAT_VERSION),
                                        _HEADER, DatasetError)
    n, k = header["count"], header["joints"]
    if k != len(JOINT_NAMES):
        raise DatasetError(f"dataset in {path} has {k} joints per sample, "
                           f"expected {len(JOINT_NAMES)}")
    if n < 1:
        raise DatasetError(f"dataset in {path} holds {n} samples")
    # read-only, since it views the bytes; so do the rows handed out below
    block = payload(n * k * _VALUES_PER_JOINT).reshape(n, k, _VALUES_PER_JOINT)
    samples = [PoseSample(joints3d=row[:, :3], joints2d=row[:, 3:])
               for row in block]
    return PoseDataset(samples=samples, split=header["split"],
                       skeleton_hash=header["skeleton_hash"])
