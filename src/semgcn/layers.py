"""Graph convolution layer families and the residual block composing them.

Four layer kinds: the vanilla shared-weight graph convolution (the
baseline), the edge-weighted semantic convolution in single-mask and
per-channel-mask form, the non-local attention layer with pairwise node
grouping, and batch normalization over batch and node axes.

Weight layout note: transformation matrices are stored (in, out) so the
forward pass is ``x @ w``; the math is the transpose of the usual
(out, in) convention.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .autodiff import (
    BatchNormState,
    ShapeError,
    Tensor,
    add,
    batch_norm,
    matmul,
    max_over_set,
    mul,
    narrow,
    parameter,
    relu,
    reshape,
    scale,
    softmax_lastdim,
    tensor_sum,
    transpose,
)
from .skeleton import mask_logit_bias


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base: named parameter/buffer traversal shared by all layers."""

    _param_names: tuple[str, ...] = ()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name in self._param_names:
            yield prefix + name, getattr(self, name)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        return iter(())

    def __call__(self, x: Tensor, train: bool = False) -> Tensor:
        return self.forward(x, train)


class VanillaGConv(Layer):
    """Shared-weight graph convolution: aggregate with a fixed propagation
    matrix, transform with one matrix for self and neighbors alike."""

    _param_names = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, propagation: np.ndarray,
                 rng: np.random.Generator, activation: bool = False):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.propagation = Tensor(np.asarray(propagation, dtype=np.float64))
        self.activation = activation
        self.w = parameter(glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.b = parameter(np.zeros(out_dim))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input channels, got {x.shape}")
        h = matmul(x, self.w)
        out = add(matmul(self.propagation, h), self.b)
        return relu(out) if self.activation else out


class SemGConv(Layer):
    """Graph convolution with learnable edge logits.

    ``edge_weights`` softmax-normalizes the logits over each receiving
    node's neighbor set (self-loop included); entries off the adjacency are
    exactly zero.  The logits start at zero, so the layer starts as uniform
    neighbor averaging.  The self contribution goes through ``w0`` and
    neighbor contributions through ``w1``, followed by a bias.  With
    ``channelwise=True`` every output channel owns its own logit matrix.
    """

    _param_names = ("w0", "w1", "mask", "b")

    def __init__(self, in_dim: int, out_dim: int, adjacency: np.ndarray,
                 rng: np.random.Generator, channelwise: bool = False,
                 activation: bool = False):
        k = adjacency.shape[0]
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.channelwise = channelwise
        self.activation = activation
        self._mask_bias = Tensor(mask_logit_bias(adjacency))
        self._self_sel = Tensor(np.eye(k))
        self._neigh_sel = Tensor(1.0 - np.eye(k))
        self.w0 = parameter(glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.w1 = parameter(glorot_uniform(rng, in_dim, out_dim, (in_dim, out_dim)))
        self.mask = parameter(np.zeros((out_dim, k, k) if channelwise else (k, k)))
        self.b = parameter(np.zeros(out_dim))

    def edge_weights(self) -> Tensor:
        """Row-stochastic weights over the adjacency support, (K,K) or (D,K,K)."""
        return softmax_lastdim(add(self.mask, self._mask_bias))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input channels, got {x.shape}")
        s = self.edge_weights()
        s_self = mul(s, self._self_sel)
        s_neigh = mul(s, self._neigh_sel)
        h0 = matmul(x, self.w0)
        h1 = matmul(x, self.w1)
        if self.channelwise:
            out = add(_per_channel_aggregate(s_self, h0),
                      _per_channel_aggregate(s_neigh, h1))
        else:
            # the self term is diagonal: a per-node weight beats a matmul
            self_weight = tensor_sum(s_self, axis=-1, keepdims=True)  # (K, 1)
            out = add(mul(h0, self_weight), matmul(s_neigh, h1))
        out = add(out, self.b)
        return relu(out) if self.activation else out


def _per_channel_aggregate(s: Tensor, h: Tensor) -> Tensor:
    """out[b,i,d] = sum_j s[d,i,j] * h[b,j,d] for per-channel weights."""
    b, k, d = h.shape
    ht = reshape(transpose(h, (0, 2, 1)), (b, d, k, 1))
    y = matmul(s, ht)  # (D,K,K) @ (B,D,K,1) -> (B,D,K,1)
    return transpose(reshape(y, (b, d, k)), (0, 2, 1))


class NonLocalBlock(Layer):
    """Global attention over grouped nodes with a zero-initialized output
    map, so the layer starts as the identity.

    Keys and values come from pairwise max-pooled nodes (K down to K/2);
    query, key and value embeddings are ``channels // 2`` wide.  The
    affinity is an affine map of the concatenated query/key embeddings
    followed by ReLU, and the aggregated message is averaged over the
    grouped set before the residual add.
    """

    _param_names = ("theta_w", "theta_b", "phi_w", "phi_b",
                    "g_w", "g_b", "wf_w", "wf_b", "wx")

    def __init__(self, channels: int, groups: tuple[tuple[int, ...], ...],
                 num_nodes: int, rng: np.random.Generator):
        flat = sorted(i for grp in groups for i in grp)
        if flat != list(range(num_nodes)):
            raise ShapeError("node grouping must be a perfect partition")
        self.channels = channels
        self.embed_dim = e = max(1, channels // 2)
        self.groups = tuple(tuple(sorted(grp)) for grp in groups)
        self.theta_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.theta_b = parameter(np.zeros(e))
        self.phi_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.phi_b = parameter(np.zeros(e))
        self.g_w = parameter(glorot_uniform(rng, channels, e, (channels, e)))
        self.g_b = parameter(np.zeros(e))
        self.wf_w = parameter(glorot_uniform(rng, 2 * e, 1, (2 * e, 1)))
        self.wf_b = parameter(np.zeros(1))
        self.wx = parameter(np.zeros((e, channels)))  # zero: identity at init

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ShapeError(f"expected {self.channels} channels, got {x.shape}")
        n_groups = len(self.groups)
        e = self.embed_dim
        pooled = max_over_set(x, self.groups)               # (B, G, C)
        q = add(matmul(x, self.theta_w), self.theta_b)      # (B, K, E)
        key = add(matmul(pooled, self.phi_w), self.phi_b)   # (B, G, E)
        val = add(matmul(pooled, self.g_w), self.g_b)       # (B, G, E)
        # affine of the concatenated pair [q_i || k_j] computed as a split
        # sum: wf[:e] hits the query half, wf[e:] the key half
        q_score = matmul(q, narrow(self.wf_w, 0, 0, e))     # (B, K, 1)
        k_score = matmul(key, narrow(self.wf_w, 0, e, e))   # (B, G, 1)
        logits = add(add(q_score, transpose(k_score, (0, 2, 1))), self.wf_b)
        f = relu(logits)                                    # (B, K, G)
        message = matmul(f, val)                            # (B, K, E)
        return add(x, scale(matmul(message, self.wx), 1.0 / n_groups))


class BatchNormNodes(Layer):
    """Per-channel batch normalization over the batch and node axes."""

    _param_names = ("gamma", "beta")

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-8):
        self.channels = channels
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.state = BatchNormState(channels, momentum=momentum, eps=eps)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        yield prefix + "running_mean", self.state.running_mean
        yield prefix + "running_var", self.state.running_var

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.state, training=train)


class ResidualGConvBlock(Layer):
    """Two conv+BN+ReLU stages under a skip connection, then an optional
    non-local layer (which carries its own residual)."""

    def __init__(self, conv1: Layer, bn1: BatchNormNodes, conv2: Layer,
                 bn2: BatchNormNodes, nonlocal_layer: NonLocalBlock | None):
        self.conv1 = conv1
        self.bn1 = bn1
        self.conv2 = conv2
        self.bn2 = bn2
        self.nonlocal_layer = nonlocal_layer

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        yield from self.conv1.named_parameters(prefix + "conv1.")
        yield from self.bn1.named_parameters(prefix + "bn1.")
        yield from self.conv2.named_parameters(prefix + "conv2.")
        yield from self.bn2.named_parameters(prefix + "bn2.")
        if self.nonlocal_layer is not None:
            yield from self.nonlocal_layer.named_parameters(prefix + "nonlocal.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        yield from self.bn1.named_buffers(prefix + "bn1.")
        yield from self.bn2.named_buffers(prefix + "bn2.")

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        h = relu(self.bn1(self.conv1(x, train), train))
        h = relu(self.bn2(self.conv2(h, train), train))
        y = add(x, h)
        if self.nonlocal_layer is not None:
            y = self.nonlocal_layer(y, train)
        return y
