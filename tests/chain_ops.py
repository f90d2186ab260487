"""The single ops the engine ran before fused nodes took their place:
matmul with its addends, add, mul, softmax and sum, as the engine defined
them.  The tests that compare a fused node with the chain of single ops
it replaced, byte for byte, build that chain from these, and the tests
of these ops keep the chain honest.  Each op records through
``autodiff._maybe_record``, looked up on the module, so the ``ops_run``
fixture counts them as it counts the engine's own."""

from __future__ import annotations

import numpy as np

from semgcn import autodiff
from semgcn.autodiff import AutodiffError, ShapeError, Tensor, _as_tensor


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


def _give_once(g: np.ndarray, grads) -> tuple:
    """``grads`` with ``g`` itself kept by the first input it goes to and
    copied for the rest, as ``Tape.backward`` takes it from a vjp: each
    gradient in a buffer of its own."""
    taken = False
    out = []
    for grad in grads:
        if grad is g:
            if taken:
                grad = g.copy()
            taken = True
        out.append(grad)
    return tuple(out)


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
    autodiff._ensure_finite(out_data, "matmul")

    def vjp(g: np.ndarray):
        # the first full-shape addend takes ``g`` itself and the others
        # copies; nothing here writes to ``g``
        rest = _give_once(g, (_sum_to_shape(g, t.shape) if t.requires_grad
                              else None for t in terms))
        if vector:
            return (b_data @ g if a.requires_grad else None,
                    np.outer(a_data, g) if b.requires_grad else None, *rest)
        ga = gb = None
        if a.requires_grad:
            if stacked_by_2d:
                # written in place so ``ga`` owns its memory
                gflat = g.reshape(-1, g.shape[-1])
                ga = np.empty(a_data.shape, a_data.dtype)
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

    return autodiff._maybe_record("matmul", (a, b, *terms), out_data, vjp)


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
    autodiff._ensure_finite(out_data, "add")

    def vjp(g):
        return _give_once(g, (_sum_to_shape(g, t.shape) if t.requires_grad
                              else None for t in terms))

    return autodiff._maybe_record("add", terms, out_data, vjp)


def mul(a, b) -> Tensor:
    """Broadcasting elementwise product; ``mul(x, c)`` scales by a constant."""
    a, b = _as_tensor(a), _as_tensor(b)
    a_data, b_data = a.data, b.data
    try:
        out_data = a_data * b_data
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} vs {b.shape}") from exc
    autodiff._ensure_finite(out_data, "mul")

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

    return autodiff._maybe_record("mul", (a, b), out_data, vjp)


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
    autodiff._ensure_finite(out_data, "softmax")

    def vjp(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - inner),)

    return autodiff._maybe_record("softmax", (x,), out_data, vjp)


def tensor_sum(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.asarray(x.data.sum())
    autodiff._ensure_finite(out_data, "sum")

    def vjp(g):
        return (np.full(x.shape, g, x.data.dtype),)

    return autodiff._maybe_record("sum", (x,), out_data, vjp)
