"""Declarative construction of the four architecture variants.

Every variant shares the same trunk: an input graph convolution lifting
per-joint 2D coordinates into the latent width, a stack of residual
blocks, and an output convolution projecting back to 3D with no
activation.  Variants with global attention insert a non-local layer
after the input stage and one per residual block; ``resgcn`` swaps the
edge-weighted convolutions for vanilla ones and drops the non-local
layers entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Iterator

import numpy as np

from .autodiff import ShapeError, Tensor, relu
from .layers import (
    BatchNormNodes,
    Layer,
    NonLocalBlock,
    ResidualGConvBlock,
    SemGConv,
    VanillaGConv,
)
from .skeleton import (
    DEFAULT_NODE_GROUPS,
    SkeletonGraph,
    adjacency,
    normalize_adjacency,
)

VARIANTS = ("semgcn", "semgcn-nonl-only", "semgcn-conv-only", "resgcn")
INPUT_DIM = 2   # projected (u, v) per joint, as the dataset format stores it
OUTPUT_DIM = 3  # (x, y, z) millimeters per joint


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkConfig:
    variant: str = "semgcn"
    channels: int = 128
    blocks: int = 4
    channelwise_masks: bool = False

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        if self.channels < 2:
            raise ConfigError("channels must be >= 2")
        if self.blocks < 0:
            raise ConfigError("blocks must be >= 0")

    @property
    def uses_edge_weights(self) -> bool:
        return self.variant in ("semgcn", "semgcn-conv-only")

    @property
    def uses_nonlocal(self) -> bool:
        return self.variant in ("semgcn", "semgcn-nonl-only")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """Build and validate; unknown keys are dropped, so checkpoint
        headers that still carry removed settings keep loading."""
        cfg = cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})
        cfg.validate()
        return cfg


class Network:
    """The instantiated parameterized compute graph for one variant."""

    def __init__(self, config: NetworkConfig, skeleton: SkeletonGraph,
                 input_conv: Layer, input_bn: BatchNormNodes,
                 input_nonlocal: NonLocalBlock | None,
                 blocks: list[ResidualGConvBlock], output_conv: Layer):
        self.config = config
        self.skeleton = skeleton
        self.input_conv = input_conv
        self.input_bn = input_bn
        self.input_nonlocal = input_nonlocal
        self.blocks = blocks
        self.output_conv = output_conv

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.input_conv.named_parameters("input.conv.")
        yield from self.input_bn.named_parameters("input.bn.")
        if self.input_nonlocal is not None:
            yield from self.input_nonlocal.named_parameters("input.nonlocal.")
        for i, block in enumerate(self.blocks):
            yield from block.named_parameters(f"blocks.{i}.")
        yield from self.output_conv.named_parameters("output.conv.")

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        yield from self.input_bn.named_buffers("input.bn.")
        for i, block in enumerate(self.blocks):
            yield from block.named_buffers(f"blocks.{i}.")

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.grad = None

    def semgconv_layers(self) -> list[tuple[str, SemGConv]]:
        """All edge-weighted convolutions in network order."""
        out = []
        if isinstance(self.input_conv, SemGConv):
            out.append(("input", self.input_conv))
        for i, block in enumerate(self.blocks):
            if isinstance(block.conv1, SemGConv):
                out.append((f"block{i}.conv1", block.conv1))
            if isinstance(block.conv2, SemGConv):
                out.append((f"block{i}.conv2", block.conv2))
        if isinstance(self.output_conv, SemGConv):
            out.append(("output", self.output_conv))
        return out

    def forward(self, p2d, train: bool = False,
                skip_nonlocal: bool = False) -> Tensor:
        """Predict root-relative 3D joints from root-centered 2D joints.

        ``skip_nonlocal`` excises the non-local layers (used to verify
        their at-initialization identity).
        """
        x = p2d if isinstance(p2d, Tensor) else Tensor(p2d)
        if x.ndim != 3 or x.shape[1] != self.skeleton.num_joints \
                or x.shape[2] != INPUT_DIM:
            raise ShapeError(
                f"expected (B, {self.skeleton.num_joints}, {INPUT_DIM}) input, "
                f"got {x.shape}")
        if not np.isfinite(x.data).all():
            raise ShapeError("network input contains non-finite values")
        h = relu(self.input_bn(self.input_conv(x, train), train))
        if self.input_nonlocal is not None and not skip_nonlocal:
            h = self.input_nonlocal(h, train)
        for block in self.blocks:
            if skip_nonlocal and block.nonlocal_layer is not None:
                saved, block.nonlocal_layer = block.nonlocal_layer, None
                try:
                    h = block(h, train)
                finally:
                    block.nonlocal_layer = saved
            else:
                h = block(h, train)
        return self.output_conv(h, train)

    def __call__(self, p2d, train: bool = False) -> Tensor:
        return self.forward(p2d, train)


def build_network(config: NetworkConfig, skeleton: SkeletonGraph,
                  seed: int = 0) -> Network:
    """Instantiate a variant with Glorot weights and zeroed masks/biases."""
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(seed))
    adj = adjacency(skeleton)
    norm_adj = normalize_adjacency(adj)
    c = config.channels
    groups = DEFAULT_NODE_GROUPS

    def make_conv(in_dim: int, out_dim: int) -> Layer:
        if config.uses_edge_weights:
            return SemGConv(in_dim, out_dim, adj, rng,
                            channelwise=config.channelwise_masks)
        return VanillaGConv(in_dim, out_dim, norm_adj, rng)

    def make_nonlocal() -> NonLocalBlock | None:
        if not config.uses_nonlocal:
            return None
        return NonLocalBlock(c, groups, skeleton.num_joints, rng)

    input_conv = make_conv(INPUT_DIM, c)
    input_bn = BatchNormNodes(c)
    input_nonlocal = make_nonlocal()
    blocks = []
    for _ in range(config.blocks):
        blocks.append(ResidualGConvBlock(
            conv1=make_conv(c, c), bn1=BatchNormNodes(c),
            conv2=make_conv(c, c), bn2=BatchNormNodes(c),
            nonlocal_layer=make_nonlocal()))
    output_conv = make_conv(c, OUTPUT_DIM)
    return Network(config, skeleton, input_conv, input_bn, input_nonlocal,
                   blocks, output_conv)


def count_params(net: Network) -> int:
    """Total trainable scalars: weights, biases, edge logits, BN affine."""
    return sum(t.size for t in net.parameters())
