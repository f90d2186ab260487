"""Minimal reverse-mode autodiff over dense floating-point arrays.

The ops are the ones the network runs, each a fused node: the graph
convolution (:func:`graph_conv`, with a SemGConv layer's edge softmax
inside it) and the non-local layer (:func:`non_local`) record ``matmul``
nodes, the batch norm and its ReLU a ``batch_norm`` node, and the pose
loss (:func:`squared_error`) a ``sum`` node.  A train-mode batch norm
that feeds a conv or a non-local layer runs as that node's prologue
(``norm``), and keeps no output of its own.  Every operation records a
node on the active :class:`Tape` (when one is open and an input requires
gradients, see :func:`records`) holding a closure that maps the output
gradient to input gradients.  Backward walks the tape once in reverse
execution order, which is always a valid topological order.  An
eval-mode conv → batch norm → ReLU stage is no op: ``layers.conv_bn_relu``
runs it in numpy on the convolution's product, :func:`graph_conv_product`.

Every input of a training step's nodes but the network's input is
trained, so a vjp returns a gradient for every input it was given, each
in a buffer of its own, and :meth:`Tape.backward` adds into those inputs
that require one.  A vjp owns the output gradient ``g`` it is handed and
may overwrite it, or return it, scaled in place, as one input's gradient
(never more than one's).  The root's vjp gets a copy, so ``root.grad``
and a seed array passed to :meth:`Tape.backward` stay untouched.

Values, and every buffer an op allocates, have the compute dtype
:data:`DTYPE`.  Outputs are checked for NaN/Inf; a violation raises
:class:`NonFiniteError` instead of propagating silently.  The
finite-difference oracle, :func:`grad_check`, computes in double
(:data:`ORACLE_DTYPE`) whatever the compute dtype is.

Importing the module tells glibc's allocator to keep freed memory in the
process (:func:`_keep_freed_memory`), so that one step's tape is reused
by the next instead of being faulted in again.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

DTYPE = np.float64  # the compute dtype; only Tensor.__init__ reads it
ORACLE_DTYPE = np.double  # grad_check's dtype, whatever DTYPE is

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
    """Dense n-dimensional :data:`DTYPE` array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
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


def parameter(data) -> Tensor:
    """A tensor that accumulates gradients (trainable leaf)."""
    return Tensor(data, requires_grad=True)


class TapeNode:
    """One recorded operation: inputs, output, and its vector-Jacobian
    product, which maps the output gradient to one gradient per input."""

    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 vjp: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_TAPES: list["Tape"] = []  # open tapes, innermost last


def records(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on ``inputs`` records a node: a tape is open and one
    of them requires gradients."""
    return bool(_TAPES) and any(t.requires_grad for t in inputs)


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

        Each node's vjp returns a gradient for every input; those of the
        inputs that require one add onto their ``grad`` buffers, and the
        rest are dropped.  Reset the buffers to None between steps when
        accumulation is not wanted.  A caller's ``grad`` array is never
        written to, and ``root.grad`` only takes the seed.
        """
        if grad is None:
            grad = np.ones_like(root.data)
        else:
            grad = np.array(grad, root.data.dtype)  # root.grad must not alias it
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
            for tensor, g in zip(node.inputs, node.vjp(out_grad)):
                if tensor.requires_grad:
                    _accumulate(tensor, g)


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


def _maybe_record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
                  vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    """The op's output; a tape node too when a tape is open and an input
    requires gradients."""
    if not records(inputs):
        return Tensor(out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = True
    _TAPES[-1].nodes.append(TapeNode(op, inputs, out, vjp))
    return out


# ---------------------------------------------------------------------------
# primitives


_GX_CHUNK_ROWS = 8  # batch rows per A_r^T gz_r product in graph_conv's vjp


def edge_softmax(logits: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The row softmax of ``logits + support``, stabilized by max
    subtraction: an edge-weighted conv's (K, K) edge weights.

    ``support`` is 0 on the graph's edges and a large negative sentinel
    off them, so entries off the support are exact zeros.  -Inf is
    permitted there too; a row made up entirely of -Inf has no support
    and is an error.
    """
    z = logits + support
    m = np.max(z, axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise AutodiffError("softmax slice with empty support (all -inf)")
    e = np.exp(z - m)
    out = e / e.sum(axis=-1, keepdims=True)
    _ensure_finite(out, "softmax")
    return out


def _aggregations(a: np.ndarray, s: np.ndarray | None) -> list[np.ndarray]:
    """:func:`graph_conv`'s aggregations: the propagation ``a``, or the
    self and neighbour parts of the edge weights ``s``, their diagonal and
    the rest, formed as products with 0/1 masks."""
    if s is None:
        return [a]
    eye = np.eye(len(s), dtype=s.dtype)
    return [s * eye, s * (1.0 - eye)]


def _softmax_backward(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient of a row softmax ``s`` with output gradient
    ``g``."""
    inner = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - inner)


def graph_conv_product(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                       a: np.ndarray, mask: np.ndarray | None = None,
                       norm=None):
    """:func:`graph_conv`'s forward up to its bias, in numpy: the shapes
    checked, then the (..., K, C_out) product ``[A_1 h | ... | A_R h] @
    w``, where ``h`` is ``x`` or, with ``norm = (gamma, beta, state)``,
    the prologue's ``relu(bn(x))``.  ``b`` is the (C_out,) array the
    caller adds next; it is checked, not added.  Also returns the edge
    weights (None without ``mask``) and the prologue's batch mean and
    ``1 / sqrt(var + BN_EPS)`` (empty without ``norm``).  The eval-mode
    conv stage, ``layers.conv_bn_relu``, runs its product here too."""
    logits = () if mask is None else (mask,)
    if x.ndim < 2:
        raise ShapeError(f"graph_conv needs a (..., K, C) input, got {x.shape}")
    k, c_in = x.shape[-2:]
    r = 1 + len(logits)
    if not (w.shape[:-1] == (r, c_in) or (r == 1 and w.shape[:-1] == (c_in,))):
        raise ShapeError(f"graph_conv weight {w.shape} does not fit {r} "
                         f"aggregations of {c_in} channels")
    c_out = w.shape[-1]
    if b.shape != (c_out,):
        raise ShapeError(f"graph_conv bias {b.shape} does not fit {c_out} "
                         "channels")
    for shape in (a.shape, *(t.shape for t in logits)):
        if shape != (k, k):
            raise ShapeError(f"graph_conv aggregation or logits {shape} do "
                             f"not fit {k} nodes")
    x3 = x.reshape(-1, k, c_in)
    s = edge_softmax(mask, a) if logits else None
    conv_in, stats = x3, ()
    if norm is not None:
        h, *stats = _batch_norm_forward(x3.reshape(-1, c_in), *norm)
        conv_in = h.reshape(x3.shape)
        del h
    z = np.empty((x3.shape[0], k, r * c_in), x3.dtype)
    for i, agg in enumerate(_aggregations(a, s)):
        np.matmul(agg, conv_in, out=z[..., i * c_in:(i + 1) * c_in])
    del conv_in  # a normalized input is recomputed by the vjp, not kept
    out = z.reshape(-1, r * c_in) @ w.reshape(r * c_in, c_out)
    return out.reshape(x.shape[:-1] + (c_out,)), s, stats


def graph_conv(x, w, b, a, mask=None, *, norm=None) -> Tensor:
    """Graph convolution ``[A_1 x | ... | A_R x] @ w + b`` as one tape node.

    ``x`` is (..., K, C_in) and ``b`` is (C_out,); each aggregation
    ``A_r`` is (K, K) and acts on the node axis.  Without ``mask``, ``a``
    is the one aggregation (R = 1), a fixed propagation matrix, and ``w``
    is (C_in, C_out).  With (K, K) edge logits ``mask``, ``a`` is their
    additive support (see :func:`edge_softmax`): the edge weights
    ``S = edge_softmax(mask, a)`` split into their diagonal, which weighs
    each node's own input, and the rest, its neighbours' (R = 2), and
    ``w`` is (2, C_in, C_out).  ``a`` is a constant either way; the node's
    inputs are ``x, w, b`` and the logits.  The R aggregated inputs are
    laid side by side into one (N, R*C_in) operand, so ``w[r]`` transforms
    ``A_r x`` and the product is one GEMM (:func:`graph_conv_product`);
    the weight gradient takes ``w``'s shape.  The node is a ``matmul``
    that keeps only its output (and the (K, K) edge weights): the vjp
    recomputes the small ``A_r x`` products for the weight gradient
    instead of storing them (Chen et al., arXiv 1604.06174), one
    aggregation at a time.  The logits' gradient is formed as the chain
    of an add, a softmax and the two masking products formed it, in that
    chain's order: the neighbour part's gradient first, then the self
    part's added, then the softmax's backward.

    With ``norm = (gamma, beta, state)`` a train-mode batch norm → ReLU
    prologue runs first, as :func:`batch_norm` runs it: the conv takes
    ``relu(bn(x))`` in place of ``x``, and ``state``'s running statistics
    are updated once, here.  The node's inputs are then followed by
    ``gamma`` and ``beta``, and beside its output it keeps only the
    per-channel batch mean and ``1 / sqrt(var + BN_EPS)``: the vjp
    recomputes ``relu(bn(x))`` from ``x``, an elementwise pass, runs the
    conv's backward and then the batch norm's.  So a batch norm that
    feeds a conv keeps no output on the tape: of the two activations,
    before and after the norm, only the one before is kept, as in
    In-Place Activated BatchNorm (Rota Bulo et al., arXiv 1712.02616).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    a = _as_tensor(a).data
    logits = () if mask is None else (_as_tensor(mask),)
    bn_inputs = () if norm is None else tuple(map(_as_tensor, norm[:2]))
    out_data, s, stats = graph_conv_product(
        x.data, w.data, b.data, a, *(t.data for t in logits),
        norm=None if norm is None else (*(t.data for t in bn_inputs), norm[2]))
    out_data += b.data
    _ensure_finite(out_data, "matmul")
    k, c_in = x.shape[-2:]
    r, c_out = 1 + len(logits), w.shape[-1]
    x3 = x.data.reshape(-1, k, c_in)
    x2 = x3.reshape(-1, c_in)
    w_flat = w.data.reshape(r * c_in, c_out)

    def vjp(g: np.ndarray):
        # gradients are written into arrays of their final shape, so each
        # owns its memory.  One aggregation at a time goes through one
        # (N, C_in) scratch: ``A_r x`` for the rows of ``gw[r]``, then the
        # r-th column block of ``g @ w_flat.T``.  These are row and column
        # blocks of the whole-operand GEMMs, so the sums and their bits are
        # the same, and no (N, R*C_in) operand is formed.  The node keeps
        # the edge weights alone and forms their parts again.
        g2 = g.reshape(-1, c_out)
        gb = g2.sum(axis=0)
        gaggs = []
        src = x3
        if bn_inputs:
            (gamma, beta), (mu, inv) = bn_inputs, stats
            src = _normalize_relu(x2 - mu, gamma.data * inv, beta.data,
                                  scan=False).reshape(x3.shape)
            relu_mask = (src > 0).reshape(x2.shape)
        scratch = np.empty(x3.shape, x3.dtype)
        scratch_flat = scratch.reshape(-1, c_in)
        gw = np.empty(w.shape, w.data.dtype)
        gw_r = gw.reshape(r, c_in, c_out)
        for i, agg in enumerate(_aggregations(a, s)):
            np.matmul(agg, src, out=scratch)
            np.matmul(scratch_flat.T, g2, out=gw_r[i])
            np.matmul(g2, w_flat[i * c_in:(i + 1) * c_in].T, out=scratch_flat)
            if logits:
                gaggs.append(
                    np.matmul(scratch, src.swapaxes(-1, -2)).sum(axis=0))
            if i == r - 1:
                del src  # read for the last time: a recomputed one is freed
            if i == 0:
                # the conv input's gradient: x's own, or the prologue's
                gx = np.empty(x.shape, x.data.dtype)
                gx3 = gx.reshape(x3.shape)
                np.matmul(agg.T, scratch, out=gx3)
            else:
                # A_r^T gz_r a few batch rows at a time, so the product
                # takes no full-size temporary
                for start in range(0, len(scratch), _GX_CHUNK_ROWS):
                    rows = slice(start, start + _GX_CHUNK_ROWS)
                    gx3[rows] += np.matmul(agg.T, scratch[rows])
        grads = (gx, gw, gb)
        if logits:
            # the masking products' vjps, the neighbour part's first
            eye = np.eye(k, dtype=s.dtype)
            gs = gaggs[1] * (1.0 - eye)
            gs += gaggs[0] * eye
            grads += (_softmax_backward(s, gs),)
        if bn_inputs:
            del scratch, scratch_flat
            grads += _batch_norm_backward(gx.reshape(-1, c_in), relu_mask,
                                          x2 - mu, inv, gamma.data)
        return grads

    return _maybe_record("matmul", (x, w, b, *logits, *bn_inputs), out_data,
                         vjp)


def non_local(x, pairs: np.ndarray, theta_w, theta_b, phi_w, phi_b, g_w,
              g_b, wf_q, wf_k, wf_b, wx, *, norm=None, skip=None) -> Tensor:
    """The non-local layer of a (B, K, C) input, recorded as one ``matmul``
    node that keeps only ``f`` beside its output.

    ``pairs`` is a (G, 2) index array that splits the K nodes into G
    disjoint pairs, the lower node first (``NonLocalBlock`` checks it
    once, when it is built).  Keys and values
    come from the pair max ``p`` (B, G, C): each pooled node is the
    elementwise max of its pair, and a tie goes to the lower node index.
    With E-wide embeddings, and each sum taken left to right::

        val    = p @ g_w + g_b                                   (B, G, E)
        logits = x @ (theta_w @ wf_q) + [p @ (phi_w @ wf_k)]^T
                 + theta_b @ wf_q + phi_b @ wf_k + wf_b          (B, K, G)
        f      = relu(logits)
        out    = (f @ val) @ (wx * (1/G)) + x                    (B, K, C)

    The affinity ``[wf_q; wf_k] . [q_i || k_j] + wf_b`` is linear in the
    query ``q_i = x_i theta_w + theta_b`` and the key ``k_j = p_j phi_w +
    phi_b``, so ``wf_q`` and ``wf_k`` fold into the embeddings and neither
    q nor k is formed: (C, 1) vectors in place of (C, E) GEMMs.

    The node keeps ``x``, its output and the (B, K, G) affinity ``f``; the
    vjp recomputes ``p``, ``val`` and ``f @ val`` (Chen et al., arXiv
    1604.06174).  Every product and sum, forward and backward, is formed
    as a chain of single matmul, add, mul and ReLU nodes would form it,
    in that chain's order, so values and gradients are the chain's bit
    for bit: ``x`` gets the residual ``g``, then the query term, then the
    pooling route; ``p`` the key term, then the value term; ``wf_q`` and
    ``wf_k`` their bias term, then their weight term.  The ReLU's
    subgradient at 0 is 0.

    With ``norm = (gamma, beta, state)`` a train-mode batch norm → ReLU
    prologue runs first, as :func:`batch_norm` runs it, ``skip`` added
    after the ReLU if given: the layer takes ``relu(bn(x)) + skip`` in
    place of ``x``, and ``state``'s running statistics are updated once,
    here.  The node's inputs are then followed by ``gamma``, ``beta`` and
    the skip, and beside its output and ``f`` it keeps only the
    per-channel batch mean and ``1 / sqrt(var + BN_EPS)``: the vjp
    recomputes the layer's input from ``x`` (and the skip), an
    elementwise pass, and drops it after its last read, before the
    query and routing terms exist.  Then the skip takes a copy of the
    input's gradient, and the batch norm's backward runs in its buffer.
    So, as with :func:`graph_conv`'s ``norm``, a batch norm that feeds a
    non-local layer keeps no output on the tape (Rota Bulo et al., arXiv
    1712.02616).
    """
    x = _as_tensor(x)
    weights = tuple(_as_tensor(t) for t in (theta_w, theta_b, phi_w, phi_b,
                                            g_w, g_b, wf_q, wf_k, wf_b, wx))
    bn_inputs = () if norm is None else tuple(map(_as_tensor, norm[:2]))
    skips = () if skip is None else (_as_tensor(skip),)
    if skips and not bn_inputs:
        raise AutodiffError("non_local adds a skip only after its norm")
    n_groups = len(pairs)
    if x.ndim != 3 or x.shape[1] != 2 * n_groups:
        raise ShapeError(f"non_local needs a (B, {2 * n_groups}, C) input, "
                         f"got {x.shape}")
    if skips and skips[0].shape != x.shape:
        raise ShapeError(f"non_local skip {skips[0].shape} does not fit "
                         f"{x.shape}")
    b, k, c = x.shape
    e = weights[0].shape[-1] if weights[0].ndim == 2 else None
    for t, shape in zip(weights, ((c, e), (e,), (c, e), (e,), (c, e), (e,),
                                  (e, 1), (e, 1), (1,), (e, c))):
        if t.shape != shape:
            raise ShapeError(f"non_local weight {t.shape} does not fit {c} "
                             f"channels and {e}-wide embeddings")
    tw, tb, pw, pb, gw, gb, wq, wk, wb, wxd = (t.data for t in weights)
    inv_groups = np.asarray(1.0 / n_groups, wxd.dtype)
    x2 = x.data.reshape(-1, c)
    x_data, stats = x.data, ()
    if bn_inputs:
        x_data, *stats = _batch_norm_forward(
            x2, *(t.data for t in bn_inputs), norm[2])
        x_data = x_data.reshape(x.shape)
        if skips:
            x_data += skips[0].data
            _ensure_finite(x_data, "skip add")

    def pair_max(src):
        # direct comparison beats a strided argmax; >= sends ties to the
        # lower index; both gathers are fresh copies
        first = src[:, pairs[:, 0]]
        second = src[:, pairs[:, 1]]
        first_wins = first >= second
        pooled = np.maximum(first, second, out=second)
        return pooled.reshape(-1, c), first_wins

    def values(pooled_flat):
        val = (pooled_flat @ gw).reshape(b, n_groups, e)
        val += gb
        return val

    pooled_flat, _ = pair_max(x_data)
    val = values(pooled_flat)
    _ensure_finite(val, "non_local")
    logits = ((x_data.reshape(-1, c) @ np.matmul(tw, wq)).reshape(b, k, 1)
              + (pooled_flat @ np.matmul(pw, wk)).reshape(b, 1, n_groups))
    logits += np.matmul(tb, wq)
    logits += np.matmul(pb, wk)
    logits += wb
    # checked before the ReLU, which would turn -Inf into 0
    _ensure_finite(logits, "non_local")
    f = np.maximum(logits, 0.0, out=logits)
    out_data = (np.matmul(f, val).reshape(-1, e)
                @ (wxd * inv_groups)).reshape(x_data.shape)
    out_data += x_data
    _ensure_finite(out_data, "non_local")
    del x_data  # a normalized input is recomputed by the vjp, not kept

    def vjp(g: np.ndarray):
        src = x.data
        if bn_inputs:
            (gamma, beta), (mu, inv) = bn_inputs, stats
            src = _normalize_relu(x2 - mu, gamma.data * inv, beta.data,
                                  scan=False)
            relu_mask = src > 0  # read before the skip is added
            src = src.reshape(x.shape)
            if skips:
                src += skips[0].data
        pooled_flat, first_wins = pair_max(src)
        val = values(pooled_flat)
        g_flat = g.reshape(-1, c)
        # out = message @ (wx * (1/G)) + x, with message = f @ val
        gmessage = np.empty((b, k, e), f.dtype)
        np.matmul(g_flat, (wxd * inv_groups).T, out=gmessage.reshape(-1, e))
        gwx = np.matmul(f, val).reshape(-1, e).T @ g_flat
        gwx *= inv_groups
        gf = np.matmul(gmessage, np.swapaxes(val, -1, -2))
        gval = np.matmul(np.swapaxes(f, -1, -2), gmessage)
        del gmessage, val
        gf *= f > 0  # the ReLU's subgradient at 0 is 0
        # logits = q_score + k_score^T + bq + bk + wf_b; the three (1,)
        # terms share one gradient
        gq = gf.sum(axis=2, keepdims=True).reshape(-1, 1)
        gk = gf.sum(axis=1, keepdims=True).reshape(-1, 1)
        gbias = gf.sum(axis=(0, 1)).sum(axis=0, keepdims=True)
        tq, tk = np.matmul(tw, wq), np.matmul(pw, wk)
        gtq = src.reshape(-1, c).T @ gq
        del src  # read for the last time: a recomputed one is freed
        gtk = pooled_flat.T @ gk
        gwf_q = np.outer(tb, gbias)
        gwf_q += np.matmul(np.swapaxes(tw, -1, -2), gtq)
        gwf_k = np.outer(pb, gbias)
        gwf_k += np.matmul(np.swapaxes(pw, -1, -2), gtk)
        grads = (np.matmul(gtq, np.swapaxes(wq, -1, -2)), wq @ gbias,
                 np.matmul(gtk, np.swapaxes(wk, -1, -2)), wk @ gbias,
                 pooled_flat.T @ gval.reshape(-1, e), gval.sum(axis=(0, 1)),
                 gwf_q, gwf_k, gbias, gwx)
        gx = g  # the residual, which the two terms below add into
        query = np.empty(x.shape, g.dtype)
        np.matmul(gq, tq.T, out=query.reshape(-1, c))
        gx += query
        del query
        gpooled = np.empty((b, n_groups, c), g.dtype)
        np.matmul(gk, tk.T, out=gpooled.reshape(-1, c))
        gvalue = np.empty_like(gpooled)
        np.matmul(gval.reshape(-1, e), gw.T, out=gvalue.reshape(-1, c))
        gpooled += gvalue
        del gvalue
        # each pair's gradient goes to its max; every node is in one pair
        routed_first = gpooled * first_wins
        gx[:, pairs[:, 0]] += routed_first
        gpooled -= routed_first
        gx[:, pairs[:, 1]] += gpooled
        if not bn_inputs:
            return (gx, *grads)
        # the layer's buffers go before the batch norm's backward takes its own
        del pooled_flat, first_wins, gval, gpooled, routed_first
        gx = np.ascontiguousarray(gx)  # the batch norm's backward runs in it
        gskip = tuple(gx.copy() for _ in skips)
        # the reshape is a view, so x's gradient is formed in gx's buffer
        ggamma, gbeta = _batch_norm_backward(
            gx.reshape(x2.shape), relu_mask, x2 - mu, inv, gamma.data)
        return (gx, *grads, ggamma, gbeta, *gskip)

    return _maybe_record("matmul", (x, *weights, *bn_inputs, *skips),
                         out_data, vjp)


def squared_error(pred, target, scale, incidence=None,
                  bone_target=None) -> Tensor:
    """``scale * (sum((pred - target)^2) + sum((I @ pred - bone_target)^2))``
    as one ``sum`` tape node that keeps two differences of ``pred``'s size
    and a scalar output; the bone term, with the (E, K) incidence matrix
    ``I``, only when ``incidence`` is given.

    The constants are rounded to the compute dtype as any tensor is, and
    every sum is formed as the chain of add, mul, sum and matmul nodes
    that it replaces formed it, so values and gradients are that chain's
    bit for bit: a term ``sum(d^2)`` hands ``d`` the gradient ``c d + c
    d``, where ``c`` is the output gradient times ``scale``, and ``pred``
    gets ``I^T`` times its bone term first, then its joint term.
    """
    pred = _as_tensor(pred)
    c = _as_tensor(scale).data
    d = pred.data - _as_tensor(target).data
    total = (d * d).sum()
    if incidence is not None:
        inc = _as_tensor(incidence).data
        bone_d = np.matmul(inc, pred.data) - _as_tensor(bone_target).data
        total = total + (bone_d * bone_d).sum()
    out_data = np.asarray(total * c)
    _ensure_finite(out_data, "sum")

    def vjp(g: np.ndarray):
        gc = g * c
        joint = d * gc
        joint += joint
        if incidence is None:
            return (joint,)
        bone = bone_d * gc
        bone += bone
        gpred = np.matmul(inc.T, bone)
        gpred += joint
        return (gpred,)

    return _maybe_record("sum", (pred,), out_data, vjp)


BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones
BN_EPS = 1e-8      # added to the variance before the square root


class BatchNormState:
    """A batch norm's running statistics: checkpoint buffers, so always double."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


def _batch_norm_forward(x2: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                        state: BatchNormState):
    """Train-mode batch norm and ReLU of (N, C) rows by their batch
    statistics: the output in a fresh buffer, the batch mean and
    ``1 / sqrt(var + BN_EPS)``.  Updates ``state``'s running statistics."""
    n, c = x2.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm parameter shapes {gamma.shape}/{beta.shape} do not match "
            f"{c} channels")
    if state.running_mean.shape != (c,):
        raise ShapeError("batch_norm state does not match channel count")
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
    return _normalize_relu(xc, gamma * inv, beta, scan=True), mu, inv


def _normalize_relu(centered: np.ndarray, a: np.ndarray, beta: np.ndarray,
                    scan: bool) -> np.ndarray:
    """``relu(centered * a + beta)`` in ``centered``'s buffer, where ``a``
    is ``gamma / sqrt(var + BN_EPS)``; with ``scan``, the forward's, the
    values are checked for finiteness before the ReLU, which would turn
    -Inf into 0.  A vjp that recomputes a batch norm's output calls it
    with the forward's operands and no scan: the bits are the forward's,
    which passed it."""
    centered *= a
    centered += beta
    if scan:
        _ensure_finite(centered, "batch_norm")
    return np.maximum(centered, 0.0, out=centered)


def _batch_norm_backward(g2: np.ndarray, relu_mask: np.ndarray,
                         centered: np.ndarray, inv: np.ndarray,
                         gamma: np.ndarray):
    """The gradients of ``gamma`` and ``beta`` for the (N, C) output
    gradient ``g2`` of a train-mode batch norm and ReLU.  ``g2`` becomes
    the input's gradient in place; ``centered`` (the input minus the batch
    mean) is overwritten."""
    n = g2.shape[0]
    g2 *= relu_mask  # the ReLU's subgradient at 0 is 0
    gbeta = g2.sum(axis=0)
    ggamma = np.einsum("ij,ij->j", g2, centered) * inv
    # Ioffe & Szegedy (arXiv 1502.03167); every sum over g is taken above,
    # before g is overwritten
    a = gamma * inv
    g2 -= gbeta / n
    g2 *= a
    centered *= a * inv * ggamma / n
    g2 -= centered
    return ggamma, gbeta


def batch_norm(x, gamma, beta, state: BatchNormState, skip=None) -> Tensor:
    """Train-mode batch norm: normalize a (B, K, C) tensor per channel by
    its batch statistics over the batch and node axes, update the running
    ones, then apply ReLU in the same output buffer.

    Every batch norm in the network feeds a ReLU, so the two are one tape
    node.  The vjp masks ``g`` with ``out > 0`` read from the output the
    tape keeps: the subgradient at 0 is 0.  A batch norm that feeds a
    conv or a non-local layer may run instead as the prologue of that
    layer's :func:`graph_conv` or :func:`non_local` node (its ``norm``),
    which keeps no output for it.  Eval mode is a
    fixed per-channel affine map of the preceding conv's product, and no
    op: ``layers.conv_bn_relu`` applies it in numpy, with no backward.

    A ``skip`` of ``x``'s shape closes a residual block: it is added after
    the ReLU into the same buffer, so the block's sum is no node of its
    own.  The node then keeps the ReLU's
    mask (one byte per value) in place of reading it from the output, and
    its vjp hands the skip an unmasked copy of ``g``.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    skip = None if skip is None else _as_tensor(skip)
    if x.ndim != 3:
        raise ShapeError(f"batch_norm expects (B, K, C), got {x.shape}")
    if skip is not None and skip.shape != x.shape:
        raise ShapeError(f"batch_norm skip {skip.shape} does not fit "
                         f"{x.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    # the vjp recomputes the centred input instead of keeping it
    out, mu, inv = _batch_norm_forward(x2, gamma.data, beta.data, state)
    out_data = out.reshape(x.shape)
    # once a skip is added in, the output no longer shows the ReLU's
    # zeros, so the node keeps them as a mask
    mask = None
    if skip is not None:
        mask = out > 0
        out_data += skip.data
        _ensure_finite(out_data, "skip add")

    def vjp(g):
        if not g.flags.c_contiguous:
            g = np.ascontiguousarray(g)
        gskip = () if skip is None else (g.copy(),)
        # g2 is a view, so gx is formed in g's buffer
        ggamma, gbeta = _batch_norm_backward(
            g.reshape(x2.shape), out > 0 if mask is None else mask, x2 - mu,
            inv, gamma.data)
        return (g, ggamma, gbeta, *gskip)

    inputs = (x, gamma, beta) if skip is None else (x, gamma, beta, skip)
    return _maybe_record("batch_norm", inputs, out_data, vjp)


# ---------------------------------------------------------------------------
# finite-difference oracle


@contextmanager
def oracle_precision() -> Iterator[None]:
    """Make :data:`ORACLE_DTYPE` the compute dtype inside the block, so a
    case built there for :func:`grad_check` holds no other dtype."""
    global DTYPE
    saved, DTYPE = DTYPE, ORACLE_DTYPE
    try:
        yield
    finally:
        DTYPE = saved


GRAD_CHECK_EPS = 1e-5  # grad_check's central-difference step


def grad_check(f: Callable[..., Tensor], inputs: Iterable[Tensor],
               probe: np.ndarray | None = None) -> float:
    """Max relative error between analytic and central-difference
    gradients, the difference taken at steps of :data:`GRAD_CHECK_EPS`.

    The checked scalar is ``f``'s output itself, or with a ``probe`` of
    the output's shape the projection ``<f(...), probe>``: the analytic
    side seeds the backward pass with the probe, and the numeric side
    takes the dot product in numpy.  A projection on fixed random weights
    sees directions that a plain sum is blind to.  ``f`` must be
    deterministic.  The numeric side never touches the tape, so it stays
    independent of the backward implementation it is checking.  The check
    runs under :func:`oracle_precision`, and every input must already
    hold :data:`ORACLE_DTYPE`: build the case under it too.
    """
    inputs = list(inputs)
    with oracle_precision():
        for t in inputs:
            if t.data.dtype != ORACLE_DTYPE:
                raise AutodiffError(f"grad_check input is {t.data.dtype}, not "
                                    f"{np.dtype(ORACLE_DTYPE)}: build the case "
                                    "under oracle_precision()")
            if not np.isfinite(t.data).all():
                raise NonFiniteError("grad_check input is not finite")
            t.requires_grad = True
            t.grad = None

        with Tape() as tape:
            out = f(*inputs)
            if probe is None and out.size != 1:
                raise ShapeError(
                    f"grad_check needs a scalar output, got {out.shape}")
            tape.backward(out, probe)
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                    for t in inputs]
        for t in inputs:
            t.grad = None

        def value() -> float:
            out = f(*inputs)
            return out.item() if probe is None else np.vdot(out.data, probe)

        max_rel = 0.0
        for t, ana in zip(inputs, analytic):
            flat = t.data.flat  # writes through regardless of layout
            ana_flat = ana.reshape(-1)
            for i in range(t.data.size):
                orig = flat[i]
                flat[i] = orig + GRAD_CHECK_EPS
                f_plus = value()
                flat[i] = orig - GRAD_CHECK_EPS
                f_minus = value()
                flat[i] = orig
                num = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
                denom = max(1e-8, abs(ana_flat[i]) + abs(num))
                rel = abs(ana_flat[i] - num) / denom
                if rel > max_rel:
                    max_rel = rel
        return max_rel
