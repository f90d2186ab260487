"""Synthetic pose data, preprocessing, the dataset file format, and MPJPE.

The generator poses the canonical skeleton by forward kinematics with
per-joint rotations drawn inside anatomically bounded ranges, places the
subject in front of a pinhole camera, and projects.  2D inputs are exact
projections of the 3D targets (plus optional Gaussian detector noise),
so the lifting problem is well posed by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .skeleton import JOINT_NAMES, SkeletonGraph, skeleton_hash

FORMAT_VERSION = 1
_VALUES_PER_JOINT = 5  # x,y,z millimeters then u,v projected
_HEADER_KEYS = ("count", "joints", "split", "skeleton_hash", "camera", "seed",
                "noise_sigma")


class DatasetError(ValueError):
    """Malformed dataset file or violated dataset invariant."""


@dataclass(frozen=True)
class CameraConfig:
    focal: float = 1000.0
    depth_min: float = 4000.0
    depth_max: float = 6000.0
    lateral_range: float = 300.0  # uniform x/y offset of the subject, mm


@dataclass(frozen=True)
class PoseSample:
    joints3d: np.ndarray  # (K, 3) mm, camera coordinates
    joints2d: np.ndarray  # (K, 2) projected units


@dataclass
class PoseDataset:
    samples: list[PoseSample]
    split: str
    skeleton_hash: str
    camera: CameraConfig
    seed: int
    noise_sigma: float

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

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _axis_rotation(axis: str, degrees: float) -> np.ndarray:
    t = math.radians(degrees)
    c, s = math.cos(t), math.sin(t)
    if axis == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)
    if axis == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def _pose_by_kinematics(g: SkeletonGraph, rng: np.random.Generator) -> np.ndarray:
    """Joint positions (K, 3) of one posed skeleton, pelvis at the origin."""
    k = g.num_joints
    local = [np.eye(3) for _ in range(k)]
    for name, ranges in _ANGLE_RANGES.items():
        j = JOINT_NAMES.index(name)
        rot = np.eye(3)
        for axis, low, high in ranges:
            rot = rot @ _axis_rotation(axis, rng.uniform(low, high))
        local[j] = rot

    offsets = np.zeros((k, 3))
    for (p, c), length in zip(g.edges, g.canonical_bone_lengths):
        offsets[c] = np.asarray(_REST_DIRECTIONS[g.joints[c]], dtype=np.float64) * length

    pos = np.zeros((k, 3))
    global_rot = [np.eye(3) for _ in range(k)]
    global_rot[g.root] = local[g.root]
    for p, c in g.edges:  # edges are in parent-before-child order
        pos[c] = pos[p] + global_rot[p] @ offsets[c]
        global_rot[c] = global_rot[p] @ local[c]
    return pos


def project(joints3d: np.ndarray, focal: float) -> np.ndarray:
    """Pinhole projection (x * f / z, y * f / z)."""
    z = joints3d[..., 2:3]
    if (z <= 0).any():
        raise DatasetError("cannot project joints at or behind the camera")
    return joints3d[..., :2] * (focal / z)


def generate_synthetic(n: int, seed: int, camera: CameraConfig | None = None,
                       noise_sigma: float = 0.0, *,
                       skeleton: SkeletonGraph | None = None,
                       split: str = "all") -> PoseDataset:
    """Draw ``n`` posed-and-projected samples, deterministic in ``seed``."""
    if n < 1:
        raise DatasetError("need at least one sample")
    if skeleton is None:
        from .skeleton import build_skeleton
        skeleton = build_skeleton()
    if camera is None:
        camera = CameraConfig()

    samples = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        for attempt in range(100):
            pose = _pose_by_kinematics(skeleton, rng)
            offset = np.array([
                rng.uniform(-camera.lateral_range, camera.lateral_range),
                rng.uniform(-camera.lateral_range, camera.lateral_range),
                rng.uniform(camera.depth_min, camera.depth_max),
            ])
            joints3d = pose + offset
            if (joints3d[:, 2] > 0).all():
                break
        else:
            raise DatasetError("camera placement kept rejecting samples")
        joints2d = project(joints3d, camera.focal)
        if noise_sigma > 0:
            joints2d = joints2d + rng.normal(0.0, noise_sigma, size=joints2d.shape)
        joints3d.setflags(write=False)
        joints2d.setflags(write=False)
        samples.append(PoseSample(joints3d=joints3d, joints2d=joints2d))
    return PoseDataset(samples=samples, split=split,
                       skeleton_hash=skeleton_hash(skeleton), camera=camera,
                       seed=seed, noise_sigma=noise_sigma)


def split_dataset(ds: PoseDataset) -> tuple[PoseDataset, PoseDataset, PoseDataset]:
    """80/10/10 split by index order (stable across tools, no reshuffle)."""
    n = len(ds)
    if n < 10:
        raise DatasetError(f"need at least 10 samples to split, got {n}")
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    cuts = [(0, n_train, "train"), (n_train, n_train + n_val, "val"),
            (n_train + n_val, n, "test")]
    out = []
    for lo, hi, tag in cuts:
        out.append(PoseDataset(samples=ds.samples[lo:hi], split=tag,
                               skeleton_hash=ds.skeleton_hash, camera=ds.camera,
                               seed=ds.seed, noise_sigma=ds.noise_sigma))
    return tuple(out)


def centered_arrays(ds: PoseDataset, root: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Root-centered (N, K, 2) inputs and (N, K, 3) targets for training."""
    j3, j2 = ds.arrays()
    return (j2 - j2[:, root:root + 1, :], j3 - j3[:, root:root + 1, :])


def total_bone_length(j3d: np.ndarray, g: SkeletonGraph) -> float:
    parents = np.array([p for p, _ in g.edges])
    children = np.array([c for _, c in g.edges])
    seg = j3d[..., parents, :] - j3d[..., children, :]
    return float(np.linalg.norm(seg, axis=-1).sum())


def calibrate_scale(j3d_pred: np.ndarray, g: SkeletonGraph) -> np.ndarray:
    """Rescale a prediction so its total bone length matches the canonical
    skeleton.  Preserves bone-length ratios exactly."""
    total = total_bone_length(j3d_pred, g)
    if total <= 1e-12:
        raise DatasetError("degenerate prediction: total bone length is zero")
    return j3d_pred * (sum(g.canonical_bone_lengths) / total)


def mpjpe(pred: np.ndarray, gt: np.ndarray, root: int = 0) -> float:
    """Mean per-joint position error in millimeters after root alignment."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise DatasetError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.ndim == 2:
        pred, gt = pred[None], gt[None]
    pred = pred - pred[:, root:root + 1, :]
    gt = gt - gt[:, root:root + 1, :]
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


# ---------------------------------------------------------------------------
# file format: one JSON header line, then a contiguous little-endian
# float64 block of shape (N, K, 5) holding x,y,z,u,v per joint.


def save_dataset(ds: PoseDataset, path) -> None:
    if len(ds) == 0:
        raise DatasetError("refusing to save an empty dataset")
    header = {
        "version": FORMAT_VERSION,
        "count": len(ds),
        "joints": len(JOINT_NAMES),
        "split": ds.split,
        "skeleton_hash": ds.skeleton_hash,
        "camera": asdict(ds.camera),
        "seed": ds.seed,
        "noise_sigma": ds.noise_sigma,
    }
    k = len(JOINT_NAMES)
    block = np.empty((len(ds), k, _VALUES_PER_JOINT))
    for i, s in enumerate(ds.samples):
        block[i, :, :3] = s.joints3d
        block[i, :, 3:] = s.joints2d
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(block.astype("<f8").tobytes())


def _camera_from_header(camera, path) -> CameraConfig:
    """Every CameraConfig field and no other: a default would stand in for
    the camera the poses were projected with."""
    if not isinstance(camera, dict):
        raise DatasetError(f"camera in the dataset header of {path} is not "
                           f"a JSON object")
    names = [f.name for f in fields(CameraConfig)]
    missing = [name for name in names if name not in camera]
    unknown = sorted(key for key in camera if key not in names)
    if missing or unknown:
        raise DatasetError(f"camera in the dataset header of {path}: "
                           f"missing {missing}, unknown {unknown}")
    return CameraConfig(**camera)


def load_dataset(path) -> PoseDataset:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DatasetError(f"unreadable dataset header in {path}") from exc
        if not isinstance(header, dict):
            raise DatasetError(f"dataset header in {path} is not a JSON object")
        version = header.get("version")
        if version != FORMAT_VERSION:
            raise DatasetError(
                f"dataset format version {version!r} unsupported "
                f"(expected {FORMAT_VERSION})")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise DatasetError(f"dataset header in {path} lacks {missing}")
        n = int(header["count"])
        k = int(header["joints"])
        blob = fh.read()
    expected = n * k * _VALUES_PER_JOINT * 8
    if len(blob) != expected:
        raise DatasetError(
            f"truncated dataset: expected {expected} payload bytes, "
            f"got {len(blob)}")
    block = np.frombuffer(blob, dtype="<f8").reshape(n, k, _VALUES_PER_JOINT)
    camera = _camera_from_header(header["camera"], path)
    samples = []
    for i in range(n):
        joints3d = block[i, :, :3].copy()
        joints2d = block[i, :, 3:].copy()
        joints3d.setflags(write=False)
        joints2d.setflags(write=False)
        samples.append(PoseSample(joints3d=joints3d, joints2d=joints2d))
    return PoseDataset(samples=samples, split=header["split"],
                       skeleton_hash=header["skeleton_hash"], camera=camera,
                       seed=int(header["seed"]),
                       noise_sigma=float(header["noise_sigma"]))
