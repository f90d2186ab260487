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

import sys
from dataclasses import dataclass, asdict, fields
from typing import Iterator

import numpy as np

from .autodiff import NonFiniteError, ShapeError, Tensor
from .layers import (
    BatchNormNodes,
    Layer,
    NonLocalBlock,
    ResidualGConvBlock,
    SemGConv,
    VanillaGConv,
    conv_bn_relu,
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


# JSON types each annotated config field accepts; bool is a subclass of
# int in Python, so it is excluded from the numeric fields by hand
_FIELD_TYPES = {"str": (str,), "bool": (bool,), "int": (int,),
                "float": (int, float)}


def check_field_types(cfg) -> None:
    """Raise ConfigError for a dataclass field holding a value of the
    wrong type, as an untyped JSON config file can give it."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not isinstance(value, _FIELD_TYPES[f.type]) or \
                (isinstance(value, bool) and f.type != "bool"):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # JSON integers are unbounded; a float field's must fit a float
        if f.type == "float" and isinstance(value, int) and \
                abs(value) > sys.float_info.max:
            raise ConfigError(f"{f.name} is an integer too large for a float")


@dataclass(frozen=True)
class NetworkConfig:
    variant: str = "semgcn"
    channels: int = 128
    blocks: int = 4

    def validate(self) -> None:
        check_field_types(self)
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
        """Build and validate; a key that names no field, such as a
        removed setting, is a ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"network config must be a JSON object, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown network config keys: {sorted(unknown)}")
        cfg = cls(**d)
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

    def named_layers(self) -> Iterator[tuple[str, Layer]]:
        """Each conv, batch norm and non-local layer under its checkpoint
        prefix, in parameter order: ``input.conv``, ``input.bn``,
        ``input.nonlocal``, ``blocks.i.conv1``, ``bn1``, ``conv2``, ``bn2``,
        ``nonlocal`` per block, then ``output.conv``."""
        yield "input.conv", self.input_conv
        yield "input.bn", self.input_bn
        if self.input_nonlocal is not None:
            yield "input.nonlocal", self.input_nonlocal
        for i, block in enumerate(self.blocks):
            yield f"blocks.{i}.conv1", block.conv1
            yield f"blocks.{i}.bn1", block.bn1
            yield f"blocks.{i}.conv2", block.conv2
            yield f"blocks.{i}.bn2", block.bn2
            if block.nonlocal_layer is not None:
                yield f"blocks.{i}.nonlocal", block.nonlocal_layer
        yield "output.conv", self.output_conv

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for prefix, layer in self.named_layers():
            for name, t in layer.named_parameters():
                yield f"{prefix}.{name}", t

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for prefix, layer in self.named_layers():
            for name, b in layer.named_buffers():
                yield f"{prefix}.{name}", b

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.grad = None

    def forward(self, p2d, train: bool = False,
                skip_nonlocal: bool = False) -> Tensor:
        """Predict root-relative 3D joints from root-centered 2D joints.

        In train mode the input stage's batch norm runs in the input
        non-local layer's node, when there is one
        (:meth:`NonLocalBlock.after_batch_norm`), as each block's second
        batch norm runs in its own (``ResidualGConvBlock.forward``).
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
            raise NonFiniteError("network input contains non-finite values")
        nonlocal_layer = None if skip_nonlocal else self.input_nonlocal
        if not train:
            h = conv_bn_relu(self.input_conv, self.input_bn, x)
            if nonlocal_layer is not None:
                h = nonlocal_layer(h)
        elif nonlocal_layer is None:
            h = self.input_bn(self.input_conv(x, train), train)
        else:
            h = nonlocal_layer.after_batch_norm(self.input_conv(x, train),
                                                self.input_bn)
        for block in self.blocks:
            if skip_nonlocal and block.nonlocal_layer is not None:
                saved, block.nonlocal_layer = block.nonlocal_layer, None
                try:
                    h = block.forward(h, train)
                finally:
                    block.nonlocal_layer = saved
            else:
                h = block.forward(h, train)
        return self.output_conv(h, train)


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
            return SemGConv(in_dim, out_dim, adj, rng)
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
