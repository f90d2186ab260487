"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation records a node on the active :class:`Tape` (when one is
open and an input requires gradients) holding a closure that maps the
output gradient to input gradients.  Backward walks the tape once in
reverse execution order, which is always a valid topological order.

All values are 64-bit floats.  Operation outputs are checked for
NaN/Inf; a violation raises :class:`NonFiniteError` instead of
propagating silently.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for engine errors."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(AutodiffError):
    """An operation produced NaN or Inf."""


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are folded in as constants.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return scale(self, float(other)) if np.isscalar(other) else mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


def parameter(data) -> Tensor:
    """A tensor that accumulates gradients (trainable leaf)."""
    return Tensor(data, requires_grad=True)


class TapeNode:
    """One recorded operation: inputs, output, and its vector-Jacobian product."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 vjp: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _current_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Execution-ordered record of operations for one forward pass.

    A tape is confined to the thread that opened it; independent tapes in
    different threads do not interact.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"

    def _emit(self, op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
              vjp: Callable[[np.ndarray], tuple]) -> Tensor:
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out.requires_grad = True
        self.nodes.append(TapeNode(op, inputs, out, vjp))
        return out

    def backward(self, root: Tensor, grad: np.ndarray | None = None) -> None:
        """Accumulate d(root)/d(leaf) into every leaf's ``grad``.

        Gradients add onto existing ``grad`` buffers; call ``zero_grad``
        between steps when accumulation is not wanted.
        """
        if grad is None:
            grad = np.ones_like(root.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != root.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != root shape {root.data.shape}")
        _accumulate(root, grad)
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            grads = node.vjp(out_grad)
            for tensor, g in zip(node.inputs, grads):
                if g is None:
                    continue
                _accumulate(tensor, g, protected=out_grad)
            if node.output is not root:
                node.output.grad = None  # free intermediate buffers early


def _accumulate(tensor: Tensor, g: np.ndarray,
                protected: np.ndarray | None = None) -> None:
    if tensor.grad is None:
        # Own the buffer: a view or a passed-through output gradient would
        # alias another tensor's gradient and corrupt later accumulation.
        if g is protected or g.base is not None or not g.flags.writeable:
            g = g.copy()
        tensor.grad = g
    else:
        tensor.grad += g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Invert numpy broadcasting: reduce ``g`` back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _maybe_record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
                  make_vjp: Callable[[], Callable]) -> Tensor:
    tape = _current_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out_data)
    return tape._emit(op, inputs, out_data, make_vjp())


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacking rules on leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2+ dims, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    stacked_by_2d = a_data.ndim > 2 and b_data.ndim == 2
    try:
        if stacked_by_2d:
            # one large GEMM instead of a loop over stacked slices
            flat = a_data.reshape(-1, a_data.shape[-1])
            out_data = (flat @ b_data).reshape(a_data.shape[:-1] + b_data.shape[-1:])
        else:
            out_data = np.matmul(a_data, b_data)
    except ValueError as exc:
        raise ShapeError(f"matmul broadcast failed: {a.shape} vs {b.shape}") from exc
    _ensure_finite(out_data, "matmul")

    def make_vjp():
        def vjp(g: np.ndarray):
            ga = gb = None
            if a.requires_grad:
                if stacked_by_2d:
                    gflat = g.reshape(-1, g.shape[-1])
                    ga = (gflat @ b_data.T).reshape(a_data.shape)
                else:
                    ga = _sum_to_shape(np.matmul(g, np.swapaxes(b_data, -1, -2)),
                                       a_data.shape)
            if b.requires_grad:
                if stacked_by_2d:
                    flat = a_data.reshape(-1, a_data.shape[-1])
                    gb = flat.T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = _sum_to_shape(np.matmul(np.swapaxes(a_data, -1, -2), g),
                                       b_data.shape)
            return ga, gb

        return vjp

    return _maybe_record("matmul", (a, b), out_data, make_vjp)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.shape} vs {b.shape}") from exc
    _ensure_finite(out_data, "add")

    def make_vjp():
        def vjp(g):
            ga = _sum_to_shape(g, a.shape) if a.requires_grad else None
            gb = _sum_to_shape(g, b.shape) if b.requires_grad else None
            return ga, gb
        return vjp

    return _maybe_record("add", (a, b), out_data, make_vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub shapes incompatible: {a.shape} vs {b.shape}") from exc
    _ensure_finite(out_data, "sub")

    def make_vjp():
        def vjp(g):
            ga = _sum_to_shape(g, a.shape) if a.requires_grad else None
            gb = -_sum_to_shape(g, b.shape) if b.requires_grad else None
            return ga, gb
        return vjp

    return _maybe_record("sub", (a, b), out_data, make_vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} vs {b.shape}") from exc
    _ensure_finite(out_data, "mul")

    def make_vjp():
        a_data, b_data = a.data, b.data

        def vjp(g):
            ga = _sum_to_shape(g * b_data, a_data.shape) if a.requires_grad else None
            gb = _sum_to_shape(g * a_data, b_data.shape) if b.requires_grad else None
            return ga, gb
        return vjp

    return _maybe_record("mul", (a, b), out_data, make_vjp)


def scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out_data = x.data * c
    _ensure_finite(out_data, "scale")

    def make_vjp():
        def vjp(g):
            return (g * c,)
        return vjp

    return _maybe_record("scale", (x,), out_data, make_vjp)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)
    _ensure_finite(out_data, "relu")

    def make_vjp():
        mask = x.data > 0  # subgradient at 0 is 0

        def vjp(g):
            return (g * mask,)
        return vjp

    return _maybe_record("relu", (x,), out_data, make_vjp)


def softmax_lastdim(x) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction.

    -Inf logits are permitted and yield exact zeros; a slice made up
    entirely of -Inf has no support and is an error.
    """
    x = _as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax over empty last dimension")
    m = np.max(x.data, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise AutodiffError("softmax slice with empty support (all -inf)")
    e = np.exp(x.data - m)
    out_data = e / e.sum(axis=-1, keepdims=True)
    _ensure_finite(out_data, "softmax")

    def make_vjp():
        s = out_data

        def vjp(g):
            inner = (g * s).sum(axis=-1, keepdims=True)
            return (s * (g - inner),)
        return vjp

    return _maybe_record("softmax", (x,), out_data, make_vjp)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    x = _as_tensor(x)
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} "
            f"of shape {x.shape}")
    index = tuple(slice(None) if i != axis else slice(start, start + length)
                  for i in range(x.ndim))
    out_data = np.ascontiguousarray(x.data[index])

    def make_vjp():
        def vjp(g):
            gx = np.zeros_like(x.data)
            gx[index] = g
            return (gx,)
        return vjp

    return _maybe_record("narrow", (x,), out_data, make_vjp)


def index_select(x, axis: int, indices) -> Tensor:
    """Gather along one axis; backward scatter-adds (repeats accumulate)."""
    x = _as_tensor(x)
    axis = axis % x.ndim
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("index_select expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[axis]):
        raise ShapeError(f"index out of range for axis {axis} of shape {x.shape}")
    out_data = np.take(x.data, idx, axis=axis)

    def make_vjp():
        def vjp(g):
            gx = np.zeros_like(x.data)
            moved = np.moveaxis(gx, axis, 0)
            np.add.at(moved, idx, np.moveaxis(g, axis, 0))
            return (gx,)
        return vjp

    return _maybe_record("index_select", (x,), out_data, make_vjp)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        out_data = x.data.reshape(shape)  # view when possible; data never mutates
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}") from exc

    def make_vjp():
        def vjp(g):
            return (g.reshape(x.shape),)
        return vjp

    return _maybe_record("reshape", (x,), out_data, make_vjp)


def transpose(x, axes=None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(int(a) % x.ndim for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for shape {x.shape}")
    out_data = np.transpose(x.data, axes)  # view; data never mutates

    def make_vjp():
        inverse = tuple(np.argsort(axes))

        def vjp(g):
            return (np.transpose(g, inverse),)
        return vjp

    return _maybe_record("transpose", (x,), out_data, make_vjp)


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)
    out_data = np.asarray(out_data)
    _ensure_finite(out_data, "sum")

    def make_vjp():
        def vjp(g):
            if axis is None:
                return (np.full(x.shape, float(g)),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, x.shape),)
        return vjp

    return _maybe_record("sum", (x,), out_data, make_vjp)


def max_over_set(x, groups: Sequence[Sequence[int]]) -> Tensor:
    """Max-pool disjoint node pairs along axis -2 of a (..., K, C) tensor.

    Every group must be a pair of distinct nodes, and no node may belong
    to two pairs; the skeleton's pooling is such a pairing.  Gradient
    flows only to the arg-max element of each pair; ties go to the lower
    node index.
    """
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"max_over_set needs a (..., K, C) tensor, got {x.shape}")
    k = x.shape[-2]
    pairs = [sorted(int(i) for i in grp) for grp in groups]
    members = [i for pair in pairs for i in pair]
    if not pairs or any(len(pair) != 2 for pair in pairs) \
            or len(set(members)) != len(members):
        raise ShapeError(f"groups {groups!r} are not disjoint pairs")
    if min(members) < 0 or max(members) >= k:
        raise ShapeError(f"groups {groups!r} out of range for {k} nodes")
    idx = np.asarray(pairs, dtype=np.intp)  # (G, 2)
    # direct comparison beats a strided argmax; >= sends ties to the lower index
    first = x.data[..., idx[:, 0], :]
    second = x.data[..., idx[:, 1], :]
    first_wins = first >= second
    out_data = np.where(first_wins, first, second)

    def make_vjp():
        def vjp(g):
            gx = np.zeros_like(x.data)
            routed_first = np.where(first_wins, g, 0.0)
            # members are distinct (checked above), so fancy indexing
            # accumulates correctly
            gx[..., idx[:, 0], :] += routed_first
            gx[..., idx[:, 1], :] += g - routed_first
            return (gx,)
        return vjp

    return _maybe_record("max_over_set", (x,), out_data, make_vjp)


class BatchNormState:
    """Running statistics for one batch-norm layer (not differentiated)."""

    __slots__ = ("running_mean", "running_var", "momentum", "eps")

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-8):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = float(momentum)
        self.eps = float(eps)


def batch_norm(x, gamma, beta, state: BatchNormState, training: bool) -> Tensor:
    """Normalize a (B, K, C) tensor per channel over the batch and node axes."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 3:
        raise ShapeError(f"batch_norm expects (B, K, C), got {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm parameter shapes {gamma.shape}/{beta.shape} do not match "
            f"{c} channels")
    if state.running_mean.shape != (c,):
        raise ShapeError("batch_norm state does not match channel count")

    if training:
        n = x.shape[0] * x.shape[1]
        if n < 2:
            raise ShapeError("batch_norm in train mode needs batch*nodes >= 2")
        mu = x.data.mean(axis=(0, 1))
        xc = x.data - mu
        var = np.mean(xc * xc, axis=(0, 1))
        m = state.momentum
        state.running_mean *= 1.0 - m
        state.running_mean += m * mu
        state.running_var *= 1.0 - m
        state.running_var += m * var
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = xc * inv
    else:
        mu = state.running_mean
        var = state.running_var
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = (x.data - mu) * inv
    out_data = gamma.data * xhat + beta.data
    _ensure_finite(out_data, "batch_norm")

    def make_vjp():
        def vjp(g):
            ggamma = (g * xhat).sum(axis=(0, 1)) if gamma.requires_grad else None
            gbeta = g.sum(axis=(0, 1)) if beta.requires_grad else None
            gx = None
            if x.requires_grad:
                if training:
                    gm = g.mean(axis=(0, 1))
                    gxm = (g * xhat).mean(axis=(0, 1))
                    gx = gamma.data * inv * (g - gm - xhat * gxm)
                else:
                    gx = g * (gamma.data * inv)
            return gx, ggamma, gbeta
        return vjp

    return _maybe_record("batch_norm", (x, gamma, beta), out_data, make_vjp)


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(f: Callable[..., Tensor], inputs: Iterable[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of the given
    tensors.  The numeric side never touches the tape, so it stays
    independent of the backward implementation it is checking.
    """
    inputs = list(inputs)
    for t in inputs:
        if not np.isfinite(t.data).all():
            raise NonFiniteError("grad_check input is not finite")
        t.requires_grad = True
        t.grad = None

    with Tape() as tape:
        out = f(*inputs)
        if out.size != 1:
            raise ShapeError(f"grad_check needs a scalar output, got {out.shape}")
        tape.backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]
    for t in inputs:
        t.grad = None

    max_rel = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.flat  # writes through regardless of layout
        ana_flat = ana.reshape(-1)
        for i in range(t.data.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(*inputs).item()
            flat[i] = orig - eps
            f_minus = f(*inputs).item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1e-8, abs(ana_flat[i]) + abs(num))
            rel = abs(ana_flat[i] - num) / denom
            if rel > max_rel:
                max_rel = rel
    return max_rel
