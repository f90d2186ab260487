"""Graph convolution layer families and the residual block composing them.

Four layer kinds: the vanilla shared-weight graph convolution (the
baseline), the edge-weighted semantic convolution with one learned mask
shared by all channels, the non-local attention layer with pairwise node
grouping, and batch normalization over batch and node axes.  Each conv
feeding a batch norm and its ReLU forms one stage, :func:`conv_bn_relu`.

A layer's widths are its weights' shapes: an input of another width
fails in the op that reads the weight (:func:`graph_conv` or
:func:`matmul` raises ``ShapeError``).  A layer names its own tensors
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
    ShapeError,
    Tensor,
    add,
    batch_norm,
    graph_conv,
    matmul,
    max_over_set,
    mul,
    parameter,
    relu,
    softmax_lastdim,
    transpose,
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


class VanillaGConv(Layer):
    """Shared-weight graph convolution: aggregate with a fixed propagation
    matrix, transform with one matrix for self and neighbors alike, then
    add a bias.  It is one :func:`graph_conv` node with one aggregation."""

    _param_names = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, propagation: np.ndarray,
                 rng: np.random.Generator):
        self.propagation = Tensor(np.asarray(propagation, dtype=np.float64))
        self.w = parameter(glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.b = parameter(np.zeros(out_dim))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return self.conv_node(x, self.b)

    def conv_node(self, x: Tensor, b: Tensor, scale: Tensor | None = None
                  ) -> Tensor:
        """The layer's :func:`graph_conv` node with bias ``b``, and with
        ``scale`` the node of an eval-mode stage (:func:`conv_bn_relu`)."""
        return graph_conv(x, self.w, b, self.propagation, scale=scale)


class SemGConv(Layer):
    """Graph convolution with learnable edge logits.

    ``edge_weights`` softmax-normalizes the logits over each receiving
    node's neighbor set (self-loop included); entries off the adjacency are
    exactly zero.  The logits start at zero, so the layer starts as uniform
    neighbor averaging.  ``w`` is (2, in, out): the self contribution goes
    through ``w[0]`` and neighbor contributions through ``w[1]``, followed
    by a bias.  One (K, K) mask is shared by every channel, and the layer
    is one :func:`graph_conv` node over the self and neighbor parts of the
    edge weights.
    """

    _param_names = ("w", "mask", "b")

    def __init__(self, in_dim: int, out_dim: int, adjacency: np.ndarray,
                 rng: np.random.Generator):
        k = adjacency.shape[0]
        self._mask_bias = Tensor(mask_logit_bias(adjacency))
        self._self_sel = Tensor(np.eye(k))
        self._neigh_sel = Tensor(1.0 - np.eye(k))
        self.w = parameter(glorot_uniform(rng, in_dim, out_dim,
                                          (2, in_dim, out_dim)))
        self.mask = parameter(np.zeros((k, k)))
        self.b = parameter(np.zeros(out_dim))

    def edge_weights(self) -> Tensor:
        """Row-stochastic (K, K) weights over the adjacency support."""
        return softmax_lastdim(add(self.mask, self._mask_bias))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return self.conv_node(x, self.b)

    def conv_node(self, x: Tensor, b: Tensor, scale: Tensor | None = None
                  ) -> Tensor:
        """The layer's :func:`graph_conv` node with bias ``b``, and with
        ``scale`` the node of an eval-mode stage (:func:`conv_bn_relu`)."""
        s = self.edge_weights()
        return graph_conv(x, self.w, b, mul(s, self._self_sel),
                          mul(s, self._neigh_sel), scale=scale)


class NonLocalBlock(Layer):
    """Global attention over grouped nodes with a zero-initialized output
    map, so the layer starts as the identity.

    Keys and values come from pairwise max-pooled nodes (K down to K/2);
    query, key and value embeddings are ``channels // 2`` wide.  The
    affinity is an affine map of the concatenated query/key embeddings
    followed by ReLU, and the aggregated message is averaged over the
    grouped set before the residual add.  The value bias and the residual
    input are addends of their products, and the 1/G average scales the
    (E, C) weight ``wx`` rather than the (B, K, C) product: for the
    skeleton's G = 8 the scale is a power of two, so both orders round
    alike.
    """

    _param_names = ("theta_w", "theta_b", "phi_w", "phi_b",
                    "g_w", "g_b", "wf_q", "wf_k", "wf_b", "wx")

    def __init__(self, channels: int, groups: tuple[tuple[int, ...], ...],
                 num_nodes: int, rng: np.random.Generator):
        flat = sorted(i for grp in groups for i in grp)
        if flat != list(range(num_nodes)):
            raise ShapeError("node grouping must be a perfect partition")
        e = max(1, channels // 2)
        self.groups = tuple(tuple(sorted(grp)) for grp in groups)
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
        n_groups = len(self.groups)
        pooled = max_over_set(x, self.groups)               # (B, G, C)
        val = matmul(pooled, self.g_w, self.g_b)            # (B, G, E)
        # The affinity [wf_q; wf_k] . [q_i || k_j] + wf_b is linear in the
        # query q_i = x_i theta_w + theta_b and the key k_j = p_j phi_w +
        # phi_b, so wf_q and wf_k fold into the embeddings and neither q
        # nor k is formed: (C, 1) vectors in place of (C, E) GEMMs.
        q_score = matmul(x, matmul(self.theta_w, self.wf_q))     # (B, K, 1)
        k_score = matmul(pooled, matmul(self.phi_w, self.wf_k))  # (B, G, 1)
        logits = add(q_score, transpose(k_score, (0, 2, 1)),
                     matmul(self.theta_b, self.wf_q),
                     matmul(self.phi_b, self.wf_k), self.wf_b)
        f = relu(logits)                                    # (B, K, G)
        message = matmul(f, val)                            # (B, K, E)
        return matmul(message, mul(self.wx, 1.0 / n_groups), x)


class BatchNormNodes(Layer):
    """Per-channel batch normalization over the batch and node axes,
    followed by ReLU in the same tape node (see :func:`batch_norm`).

    Its forward is train mode only: in eval mode the layer is the
    scale-and-shift epilogue of its conv's node (:func:`conv_bn_relu`).
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
                                "node: call conv_bn_relu")
        return batch_norm(x, self.gamma, self.beta, self.state)


def conv_bn_relu(conv: VanillaGConv | SemGConv, bn: BatchNormNodes,
                 x: Tensor, train: bool) -> Tensor:
    """One conv → batch norm → ReLU stage.

    In train mode it is ``bn(conv(x))``, a conv node and a
    :func:`batch_norm` node, since the batch statistics need the conv's
    output.  In eval mode batch norm is a fixed per-channel affine map, so
    the stage is the conv's one :func:`graph_conv` node with a
    scale-and-shift epilogue (Jacob et al., arXiv 1712.05877): the
    product is scaled by ``gamma / sqrt(running_var + BN_EPS)`` and the
    shift ``(b - running_mean) * scale + beta`` takes the bias's place.
    Scale and shift are small tape ops on (C,) tensors, so gradients
    still reach ``b``, ``gamma`` and ``beta``; they read copies of the
    running statistics, which a later train-mode forward updates in place.
    """
    if train:
        return bn(conv(x, train), train)
    state = bn.state
    scale = mul(bn.gamma, 1.0 / np.sqrt(state.running_var + BN_EPS))
    shift = add(mul(add(conv.b, -state.running_mean), scale), bn.beta)
    return conv.conv_node(x, shift, scale)


class ResidualGConvBlock:
    """Two conv+BN+ReLU stages (:func:`conv_bn_relu`) under a skip
    connection, then an optional non-local layer (which carries its own
    residual).

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
        h = conv_bn_relu(self.conv1, self.bn1, x, train)
        h = conv_bn_relu(self.conv2, self.bn2, h, train)
        y = add(x, h)
        if self.nonlocal_layer is not None:
            y = self.nonlocal_layer(y, train)
        return y
