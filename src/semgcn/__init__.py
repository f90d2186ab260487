"""Semantic graph convolutions for 2D-to-3D human pose lifting.

A self-contained implementation: a minimal tape-based reverse-mode
autodiff engine, edge-weighted graph convolution layers with non-local
attention, a synthetic 2D/3D pose pipeline, and a training/evaluation
CLI.
"""

from .autodiff import (
    AutodiffError,
    BatchNormState,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    batch_norm,
    grad_check,
    parameter,
)
from .analysis import WeightReport, average_joint_weight, export_weights
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .layers import (
    BatchNormNodes,
    NonLocalBlock,
    ResidualGConvBlock,
    SemGConv,
    VanillaGConv,
)
from .network import Network, NetworkConfig, build_network, count_params
from .posedata import (
    DatasetError,
    PoseDataset,
    PoseSample,
    generate_synthetic,
    load_dataset,
    mpjpe,
    save_dataset,
    split_dataset,
)
from .skeleton import (
    DEFAULT_NODE_GROUPS,
    SkeletonGraph,
    adjacency,
    build_skeleton,
    normalize_adjacency,
    skeleton_hash,
)
from .training import (
    Adam,
    PlateauScheduler,
    TrainConfig,
    TrainResult,
    bone_vectors,
    pose_loss,
    train,
)

__version__ = "0.1.0"
