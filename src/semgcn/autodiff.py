"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation records a node on the active :class:`Tape` (when one is
open and an input requires gradients) holding a closure that maps the
output gradient to input gradients.  Backward walks the tape once in
reverse execution order, which is always a valid topological order.

A vjp owns the output gradient ``g`` it is handed and may overwrite it,
for instance to return ``g`` itself scaled in place.  The root is the
exception to the buffer hand-over: its vjp gets a copy, so ``root.grad``
and a seed array passed to :meth:`Tape.backward` stay untouched.  When a
vjp returns ``g`` for several inputs, the first keeps the buffer and the
others get copies.

All values are 64-bit floats.  Operation outputs are checked for
NaN/Inf; a violation raises :class:`NonFiniteError` instead of
propagating silently.

Importing the module tells glibc's allocator to keep freed memory in the
process (:func:`_keep_freed_memory`), so that one step's tape is reused
by the next instead of being faulted in again.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Iterable, Sequence

import numpy as np


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Ask glibc's malloc to keep freed arrays in the process heap.

    A training step frees its whole tape (tens of MiB) at the end; by
    default glibc returns that memory to the kernel, and the next step
    faults every page of it back in.  Arrays up to 32 MiB (the largest
    activation is 8 MiB, at batch 512) are served from the heap, and up
    to 1 GiB of free heap top is kept.  Setting either value freezes
    glibc's dynamic mmap threshold, so the mmap threshold goes first: had
    it frozen at its 128 KiB start, every larger array would be mmapped
    and faulted in on each allocation.  A C library without ``mallopt``
    is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def sum(self) -> "Tensor":
        return tensor_sum(self)


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


_TAPES: list["Tape"] = []  # open tapes, innermost last


def _current_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of operations for one forward pass."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"

    def backward(self, root: Tensor, grad: np.ndarray | None = None) -> None:
        """Accumulate d(root)/d(leaf) into every leaf's ``grad``.

        Gradients add onto existing ``grad`` buffers; reset them to None
        between steps when accumulation is not wanted.  A caller's ``grad``
        array is never written to, and ``root.grad`` only takes the seed.
        """
        if grad is None:
            grad = np.ones_like(root.data)
        else:
            grad = np.array(grad, dtype=np.float64)  # root.grad must not alias it
            if grad.shape != root.data.shape:
                raise ShapeError(
                    f"seed gradient shape {grad.shape} != root shape {root.data.shape}")
        _accumulate(root, grad)
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            if node.output is root:
                out_grad = out_grad.copy()
            else:
                node.output.grad = None  # the vjp owns the buffer from here on
            # The first input handed the buffer back keeps it; any later one
            # (add(x, x)) gets a copy, made before the keeper adds into it.
            keeper = None
            for tensor, g in zip(node.inputs, node.vjp(out_grad)):
                if g is None:
                    continue
                if g is out_grad:
                    if keeper is None:
                        keeper = tensor
                        continue
                    g = g.copy()
                _accumulate(tensor, g)
            if keeper is not None:
                _accumulate(keeper, out_grad)


def _accumulate(tensor: Tensor, g: np.ndarray) -> None:
    if tensor.grad is None:
        # Own the buffer: a view would alias another array and a read-only
        # array (a broadcast) cannot take later accumulation.
        if g.base is not None or not g.flags.writeable:
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
                  vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """The op's output; a tape node too when a tape is open and an input
    requires gradients."""
    tape = _current_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = True
    tape.nodes.append(TapeNode(op, inputs, out, vjp))
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b, *addends) -> Tensor:
    """Matrix product plus optional addends, recorded as one tape node.

    ``a @ b`` follows numpy stacking rules on leading axes; ``a`` may also
    be a vector when ``b`` is a matrix.  The addends are broadcast onto the
    product and added left to right into its fresh buffer, like GEMM's
    ``C`` term: ``matmul(a, b, t)`` equals ``add(matmul(a, b), t)`` bit for
    bit with one output array on the tape instead of two.  No addend may
    enlarge the product's shape.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    terms = tuple(_as_tensor(t) for t in addends)
    vector = a.ndim == 1 and b.ndim == 2
    if (a.ndim < 2 and not vector) or b.ndim < 2:
        raise ShapeError(f"matmul needs 2+ dims or a vector times a matrix, "
                         f"got {a.shape} and {b.shape}")
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
    for t in terms:
        try:
            # the product is fresh and private to this op: safe to add into
            np.add(out_data, t.data, out=out_data)
        except ValueError as exc:
            raise ShapeError(f"matmul addend of shape {t.shape} does not fit "
                             f"the product's shape {out_data.shape}") from exc
    _ensure_finite(out_data, "matmul")

    def vjp(g: np.ndarray):
        # a full-shape addend hands ``g`` itself back; nothing here
        # writes to ``g``, and Tape.backward gives it away last
        rest = tuple(_sum_to_shape(g, t.shape) if t.requires_grad else None
                     for t in terms)
        if vector:
            return (b_data @ g if a.requires_grad else None,
                    np.outer(a_data, g) if b.requires_grad else None, *rest)
        ga = gb = None
        if a.requires_grad:
            if stacked_by_2d:
                # written in place so ``ga`` owns its memory
                gflat = g.reshape(-1, g.shape[-1])
                ga = np.empty(a_data.shape)
                np.matmul(gflat, b_data.T,
                          out=ga.reshape(gflat.shape[0], -1))
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
        return ga, gb, *rest

    return _maybe_record("matmul", (a, b, *terms), out_data, vjp)


def graph_conv(x, w, b, *aggregations, scale=None) -> Tensor:
    """Graph convolution ``[A_1 x | ... | A_R x] @ w + b`` as one tape node.

    ``x`` is (..., K, C_in), each aggregation ``A_r`` is (K, K) and acts on
    the node axis, ``w`` is (R, C_in, C_out), or (C_in, C_out) when R = 1,
    and ``b`` is (C_out,).  The R aggregated inputs are laid side by side
    into one (N, R*C_in) operand, so ``w[r]`` transforms ``A_r x`` and the
    product is one GEMM; the weight gradient takes ``w``'s shape.  The node
    is a ``matmul`` that keeps only its output: the vjp recomputes the
    small ``A_r x`` products for the weight gradient instead of storing
    them (Chen et al., arXiv 1604.06174).

    With a (C_out,) ``scale`` the node is an eval-mode conv → batch norm →
    ReLU stage, ``relu([A_1 x | ... | A_R x] @ w * scale + b)``: this is
    where eval-mode batch norm lives, and ``b`` is the stage's shift (see
    ``layers.conv_bn_relu``).  The scale multiplies the product in its own
    buffer, never ``w``, so a change to one weight keeps its effect on the
    output bits.  The vjp masks ``g`` with ``out > 0``, as :func:`relu`
    does, and recomputes the pre-scale product only for ``scale``'s
    gradient.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    aggs = tuple(_as_tensor(a) for a in aggregations)
    scale = None if scale is None else _as_tensor(scale)
    epilogue = () if scale is None else (scale,)
    if x.ndim < 2:
        raise ShapeError(f"graph_conv needs a (..., K, C) input, got {x.shape}")
    k, c_in = x.shape[-2:]
    r = len(aggs)
    if r < 1 or not (w.shape[:-1] == (r, c_in)
                     or (r == 1 and w.shape[:-1] == (c_in,))):
        raise ShapeError(f"graph_conv weight {w.shape} does not fit {r} "
                         f"aggregations of {c_in} channels")
    c_out = w.shape[-1]
    for t in (b, *epilogue):
        if t.shape != (c_out,):
            raise ShapeError(f"graph_conv bias or scale {t.shape} does not fit "
                             f"{c_out} channels")
    for agg in aggs:
        if agg.shape != (k, k):
            raise ShapeError(f"graph_conv aggregation {agg.shape} does not fit "
                             f"{k} nodes")
    x3 = x.data.reshape(-1, k, c_in)
    w_flat = w.data.reshape(r * c_in, c_out)
    a_data = [agg.data for agg in aggs]

    def side_by_side() -> np.ndarray:
        z = np.empty((x3.shape[0], k, r * c_in))
        for i, a in enumerate(a_data):
            np.matmul(a, x3, out=z[..., i * c_in:(i + 1) * c_in])
        return z.reshape(-1, r * c_in)

    out_flat = side_by_side() @ w_flat
    if scale is not None:
        out_flat *= scale.data
    out_flat += b.data
    # checked before the ReLU, which would turn -Inf into 0
    _ensure_finite(out_flat, "matmul")
    if scale is not None:
        np.maximum(out_flat, 0.0, out=out_flat)
    out_data = out_flat.reshape(x.shape[:-1] + (c_out,))
    relu_out = None if scale is None else out_flat  # the vjp's ReLU mask

    def vjp(g: np.ndarray):
        # gradients are written into arrays of their final shape, so each
        # owns its memory
        g2 = g.reshape(-1, c_out)
        gx = gw = None
        gaggs = [None] * r
        gscale = ()
        if scale is not None:
            g2 *= relu_out > 0  # subgradient at 0 is 0
            gscale = (np.einsum("ij,ij->j", g2, side_by_side() @ w_flat)
                      if scale.requires_grad else None,)
        gb = g2.sum(axis=0) if b.requires_grad else None
        if scale is not None:
            g2 *= scale.data  # from here on, the gradient of the product
        if w.requires_grad:
            gw = np.empty(w.shape)
            np.matmul(side_by_side().T, g2, out=gw.reshape(w_flat.shape))
        if x.requires_grad or any(agg.requires_grad for agg in aggs):
            gz = (g2 @ w_flat.T).reshape(-1, k, r * c_in)
            parts = [gz[..., i * c_in:(i + 1) * c_in] for i in range(r)]
            for i, (agg, part) in enumerate(zip(aggs, parts)):
                if agg.requires_grad:
                    gaggs[i] = np.matmul(part, x3.swapaxes(-1, -2)).sum(axis=0)
            if x.requires_grad:
                gx = np.empty(x.shape)
                gx3 = gx.reshape(x3.shape)
                np.matmul(a_data[0].T, parts[0], out=gx3)
                for a, part in zip(a_data[1:], parts[1:]):
                    gx3 += np.matmul(a.T, part)
        return (gx, gw, gb, *gaggs, *gscale)

    return _maybe_record("matmul", (x, w, b, *aggs, *epilogue), out_data, vjp)


def add(a, b, *more) -> Tensor:
    """Broadcasting sum of two or more terms, added left to right as one
    tape node."""
    terms = tuple(_as_tensor(t) for t in (a, b, *more))
    try:
        out_data = terms[0].data + terms[1].data
        for t in terms[2:]:
            out_data = out_data + t.data
    except ValueError as exc:
        shapes = " vs ".join(str(t.shape) for t in terms)
        raise ShapeError(f"add shapes incompatible: {shapes}") from exc
    _ensure_finite(out_data, "add")

    def vjp(g):
        return tuple(_sum_to_shape(g, t.shape) if t.requires_grad else None
                     for t in terms)

    return _maybe_record("add", terms, out_data, vjp)


def mul(a, b) -> Tensor:
    """Broadcasting elementwise product; ``mul(x, c)`` scales by a constant."""
    a, b = _as_tensor(a), _as_tensor(b)
    a_data, b_data = a.data, b.data
    try:
        out_data = a_data * b_data
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} vs {b.shape}") from exc
    _ensure_finite(out_data, "mul")

    def vjp(g):
        # b's gradient is formed first, so a same-shape a can take g
        # scaled in place
        gb = _sum_to_shape(g * a_data, b_data.shape) if b.requires_grad else None
        ga = None
        if a.requires_grad:
            if a_data.shape == g.shape:
                g *= b_data
                ga = g
            else:
                ga = _sum_to_shape(g * b_data, a_data.shape)
        return ga, gb

    return _maybe_record("mul", (a, b), out_data, vjp)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0.0)
    _ensure_finite(out_data, "relu")

    def vjp(g):
        g *= x.data > 0  # subgradient at 0 is 0
        return (g,)

    return _maybe_record("relu", (x,), out_data, vjp)


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

    def vjp(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - inner),)

    return _maybe_record("softmax", (x,), out_data, vjp)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) % x.ndim for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for shape {x.shape}")
    out_data = np.transpose(x.data, axes)  # view; data never mutates

    def vjp(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _maybe_record("transpose", (x,), out_data, vjp)


def tensor_sum(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.asarray(x.data.sum())
    _ensure_finite(out_data, "sum")

    def vjp(g):
        return (np.full(x.shape, float(g)),)

    return _maybe_record("sum", (x,), out_data, vjp)


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
    # both gathers are fresh copies
    out_data = np.maximum(first, second, out=second)

    def vjp(g):
        gx = np.zeros_like(x.data)
        routed_first = g * first_wins
        # members are distinct (checked above): each node is written once
        gx[..., idx[:, 0], :] = routed_first
        g -= routed_first
        gx[..., idx[:, 1], :] = g
        return (gx,)

    return _maybe_record("max_over_set", (x,), out_data, vjp)


BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones
BN_EPS = 1e-8      # added to the variance before the square root


class BatchNormState:
    """Running statistics for one batch-norm layer (not differentiated)."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


def batch_norm(x, gamma, beta, state: BatchNormState) -> Tensor:
    """Train-mode batch norm: normalize a (B, K, C) tensor per channel by
    its batch statistics over the batch and node axes, update the running
    ones, then apply ReLU in the same output buffer.

    Every batch norm in the network feeds a ReLU, so the two are one tape
    node.  The vjp masks ``g`` with ``out > 0`` read from the output the
    tape keeps: the subgradient at 0 is 0, as in :func:`relu`.  Eval mode
    is a fixed per-channel affine map, which runs inside the preceding
    conv's :func:`graph_conv` node (its ``scale`` epilogue).
    """
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

    x2 = x.data.reshape(-1, c)
    n = x2.shape[0]
    if n < 2:
        raise ShapeError("batch_norm in train mode needs batch*nodes >= 2")
    mu = x2.mean(axis=0)
    xc = x2 - mu
    var = np.einsum("ij,ij->j", xc, xc) / n
    state.running_mean *= 1.0 - BN_MOMENTUM
    state.running_mean += BN_MOMENTUM * mu
    state.running_var *= 1.0 - BN_MOMENTUM
    state.running_var += BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma.data * inv
    out = xc  # the vjp recomputes the centred input instead of keeping it
    out *= a
    out += beta.data
    # checked before the ReLU, which would turn -Inf into 0
    _ensure_finite(out, "batch_norm")
    np.maximum(out, 0.0, out=out)
    out_data = out.reshape(x.shape)

    def vjp(g):
        if not g.flags.c_contiguous:
            g = np.ascontiguousarray(g)
        g2 = g.reshape(-1, c)  # a view, so gx is formed in g's buffer
        g2 *= out > 0
        centered = x2 - mu
        gbeta = g2.sum(axis=0)
        ggamma = np.einsum("ij,ij->j", g2, centered) * inv
        gx = None
        if x.requires_grad:
            # Ioffe & Szegedy (arXiv 1502.03167); every sum over g is
            # taken above, before g is overwritten
            g2 -= gbeta / n
            g2 *= a
            centered *= a * inv * ggamma / n
            g2 -= centered
            gx = g
        return (gx, ggamma if gamma.requires_grad else None,
                gbeta if beta.requires_grad else None)

    return _maybe_record("batch_norm", (x, gamma, beta), out_data, vjp)


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
