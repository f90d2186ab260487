"""Graph convolution layer families and the residual block composing them.

Four layer kinds: the vanilla shared-weight graph convolution (the
baseline), the edge-weighted semantic convolution with one learned mask
shared by all channels, the non-local attention layer with pairwise node
grouping, and batch normalization over batch and node axes.  Each conv
feeding a batch norm and its ReLU forms one stage, and a residual
block's second stage also adds the block's skip; in train mode a block's
first batch norm runs in its second conv's node.  An eval-mode stage is
no op: :func:`conv_bn_relu` runs it in numpy, with no backward.

A layer's widths are its weights' shapes: an input of another width
fails in the op that reads the weight (:func:`graph_conv` or
:func:`non_local` raises ``ShapeError``).  A layer names its own tensors
without a prefix, and ``Network.named_layers`` names the layers.

Weight layout note: transformation matrices are stored (in, out) so the
forward pass is ``x @ w``; the math is the transpose of the usual
(out, in) convention.  Both graph convolutions are one :func:`graph_conv`
node: VanillaGConv's ``w`` is (in, out), and SemGConv stacks its self and
neighbor matrices into one (2, in, out) ``w``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .autodiff import (
    BN_EPS,
    AutodiffError,
    BatchNormState,
    NonFiniteError,
    ShapeError,
    Tensor,
    batch_norm,
    edge_softmax,
    graph_conv,
    graph_conv_product,
    non_local,
    parameter,
    records,
)
from .skeleton import mask_logit_bias


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base: the layer's own parameters and buffers, by unprefixed name."""

    _param_names: tuple[str, ...] = ()

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name in self._param_names:
            yield name, getattr(self, name)

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(())

    def __call__(self, x: Tensor, train: bool = False) -> Tensor:
        return self.forward(x, train)


class GraphConv(Layer):
    """One :func:`graph_conv` node over the graph a subclass supplies."""

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return graph_conv(x, self.w, self.b, *self.graph())


class VanillaGConv(GraphConv):
    """Shared-weight graph convolution: aggregate with a fixed propagation
    matrix, transform with one matrix for self and neighbors alike, then
    add a bias."""

    _param_names = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, propagation: np.ndarray,
                 rng: np.random.Generator):
        self.propagation = Tensor(propagation)
        self.w = parameter(glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.b = parameter(np.zeros(out_dim))

    def graph(self) -> tuple[Tensor]:
        """:func:`graph_conv`'s graph arguments: the fixed propagation."""
        return (self.propagation,)


class SemGConv(GraphConv):
    """Graph convolution with learnable edge logits.

    ``edge_weights`` softmax-normalizes the logits over each receiving
    node's neighbor set (self-loop included); entries off the adjacency are
    exactly zero.  The logits start at zero, so the layer starts as uniform
    neighbor averaging.  ``w`` is (2, in, out): the self contribution goes
    through ``w[0]`` and neighbor contributions through ``w[1]``, followed
    by a bias.  One (K, K) mask is shared by every channel; the
    :func:`graph_conv` node forms the edge weights from it and splits them
    into their self and neighbor parts.
    """

    _param_names = ("w", "mask", "b")

    def __init__(self, in_dim: int, out_dim: int, adjacency: np.ndarray,
                 rng: np.random.Generator):
        k = adjacency.shape[0]
        self._mask_bias = Tensor(mask_logit_bias(adjacency))
        self.w = parameter(glorot_uniform(rng, in_dim, out_dim,
                                          (2, in_dim, out_dim)))
        self.mask = parameter(np.zeros((k, k)))
        self.b = parameter(np.zeros(out_dim))

    def edge_weights(self) -> np.ndarray:
        """Row-stochastic (K, K) weights over the adjacency support, the
        ones the conv multiplies by."""
        return edge_softmax(self.mask.data, self._mask_bias.data)

    def graph(self) -> tuple[Tensor, Tensor]:
        """:func:`graph_conv`'s graph arguments: the support and the
        edge logits."""
        return self._mask_bias, self.mask


class NonLocalBlock(Layer):
    """Global attention over grouped nodes with a zero-initialized output
    map, so the layer starts as the identity.

    Keys and values come from pairwise max-pooled nodes (K down to K/2);
    query, key and value embeddings are ``channels // 2`` wide.  The
    affinity is an affine map of the concatenated query/key embeddings
    followed by ReLU, and the aggregated message is averaged over the
    grouped set before the residual add.  The 1/G average scales the
    (E, C) weight ``wx`` rather than the (B, K, C) product: for the
    skeleton's G = 8 the scale is a power of two, so both orders round
    alike.  The layer is one :func:`non_local` node, which keeps only its
    output and the affinity.
    """

    _param_names = ("theta_w", "theta_b", "phi_w", "phi_b",
                    "g_w", "g_b", "wf_q", "wf_k", "wf_b", "wx")

    def __init__(self, channels: int, groups: tuple[tuple[int, ...], ...],
                 num_nodes: int, rng: np.random.Generator):
        pairs = [sorted(int(i) for i in grp) for grp in groups]
        if any(len(pair) != 2 for pair in pairs) or \
                sorted(i for pair in pairs for i in pair) != list(range(num_nodes)):
            raise ShapeError(f"groups {pairs!r} do not split {num_nodes} "
                             "nodes into disjoint pairs")
        e = max(1, channels // 2)
        self.pairs = np.asarray(pairs, dtype=np.intp)  # (G, 2), lower first
        self.theta_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.theta_b = parameter(np.zeros(e))
        self.phi_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.phi_b = parameter(np.zeros(e))
        self.g_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.g_b = parameter(np.zeros(e))
        # the affinity weight is one (2E, 1) map of [q || k]: drawn whole,
        # with that map's Glorot fan, and kept as its query and key halves,
        # each in its own array
        wf = glorot_uniform(rng, 2 * e, 1, (2 * e, 1))
        self.wf_q = parameter(wf[:e].copy())
        self.wf_k = parameter(wf[e:].copy())
        self.wf_b = parameter(np.zeros(1))
        self.wx = parameter(np.zeros((e, channels)))  # zero: identity at init

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return non_local(x, self.pairs, self.theta_w, self.theta_b,
                         self.phi_w, self.phi_b, self.g_w, self.g_b,
                         self.wf_q, self.wf_k, self.wf_b, self.wx)


class BatchNormNodes(Layer):
    """Per-channel batch normalization over the batch and node axes,
    followed by ReLU in the same tape node (see :func:`batch_norm`).

    Its forward is train mode only: in eval mode the layer is a scale and
    shift of its conv's product, in numpy and with no backward
    (:func:`conv_bn_relu`).
    """

    _param_names = ("gamma", "beta")

    def __init__(self, channels: int):
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.state = BatchNormState(channels)

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "running_mean", self.state.running_mean
        yield "running_var", self.state.running_var

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if not train:
            raise AutodiffError("eval-mode batch norm runs in its conv's "
                                "stage: call conv_bn_relu")
        return batch_norm(x, self.gamma, self.beta, self.state)


def conv_bn_relu(conv: GraphConv, bn: BatchNormNodes, x: Tensor,
                 skip: Tensor | None = None) -> Tensor:
    """One eval-mode conv → batch norm → ReLU stage, in numpy, then
    ``skip`` added after the ReLU (a residual block's second stage).

    Eval-mode batch norm is a fixed per-channel affine map (Jacob et al.,
    arXiv 1712.05877): the conv's product (:func:`graph_conv_product`) is
    scaled by ``gamma / sqrt(running_var + BN_EPS)`` in its own buffer,
    never through ``w``, and the shift ``(b - running_mean) * scale +
    beta`` takes the bias's place.  Scale and shift are plain arrays, each
    running-statistics term rounded to the compute dtype first, so the
    stage is inference only: under an open tape, with a tensor that
    requires gradients, it raises ``AutodiffError``.  A train-mode stage
    is ``bn(conv(x, True), True)``.
    """
    tensors = [x, bn.gamma, bn.beta, *(t for _, t in conv.named_parameters())]
    if records(tensors + ([] if skip is None else [skip])):
        raise AutodiffError("an eval-mode conv stage has no backward")
    inv = (1.0 / np.sqrt(bn.state.running_var + BN_EPS)).astype(bn.gamma.data.dtype)
    scale = bn.gamma.data * inv
    shift = ((conv.b.data + (-bn.state.running_mean).astype(inv.dtype)) * scale
             + bn.beta.data)
    # checked before the GEMM; a non-finite scale leaves the shift non-finite
    if not np.isfinite(shift).all():
        raise NonFiniteError("eval-mode batch norm: non-finite scale or shift")
    out, _, _ = graph_conv_product(x.data, conv.w.data, shift,
                                   *(t.data for t in conv.graph()))
    out *= scale
    out += shift
    # checked before the ReLU, which would turn -Inf into 0
    if not np.isfinite(out).all():
        raise NonFiniteError("eval-mode conv stage produced non-finite values")
    np.maximum(out, 0.0, out=out)
    if skip is not None:
        if skip.shape != out.shape:
            raise ShapeError(f"skip {skip.shape} does not fit the stage's "
                             f"output {out.shape}")
        out += skip.data
        if not np.isfinite(out).all():
            raise NonFiniteError("skip add produced non-finite values")
    return Tensor(out)


class ResidualGConvBlock:
    """Two conv+BN+ReLU stages under a skip connection, then an optional
    non-local layer (which carries its own residual).

    In eval mode each stage is one :func:`conv_bn_relu` call, and the
    second adds the skip after its ReLU.  In train mode the block records
    three nodes for its stages: ``conv1``, then ``bn1`` → ReLU →
    ``conv2`` as one :func:`graph_conv` node with a batch-norm prologue,
    which keeps ``conv1``'s output and not ``bn1``'s, then ``bn2`` as a
    :func:`batch_norm` node that adds the skip, so the block's sum is no
    node of its own.  Neither of the last two goes through a layer's
    ``forward``, which takes ``(x, train)`` alone.

    The block is not a ``Layer``: it owns no tensors, so it has no tensor
    walk that could quietly yield nothing.  ``Network.named_layers`` walks
    its layers, and ``Network.forward`` calls its ``forward``."""

    def __init__(self, conv1: Layer, bn1: BatchNormNodes, conv2: Layer,
                 bn2: BatchNormNodes, nonlocal_layer: NonLocalBlock | None):
        self.conv1 = conv1
        self.bn1 = bn1
        self.conv2 = conv2
        self.bn2 = bn2
        self.nonlocal_layer = nonlocal_layer

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if train:
            bn1, bn2 = self.bn1, self.bn2
            z = graph_conv(self.conv1(x, train), self.conv2.w, self.conv2.b,
                           *self.conv2.graph(),
                           norm=(bn1.gamma, bn1.beta, bn1.state))
            y = batch_norm(z, bn2.gamma, bn2.beta, bn2.state, skip=x)
        else:
            h = conv_bn_relu(self.conv1, self.bn1, x)
            y = conv_bn_relu(self.conv2, self.bn2, h, skip=x)
        if self.nonlocal_layer is not None:
            y = self.nonlocal_layer(y, train)
        return y
