"""Functional autograd operations.

These free functions complement the operator methods on
:class:`repro.tensor.Tensor`. The gather/scatter/segment family is what makes
the GNN layers vectorise over edge lists instead of looping over nodes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _as_tensor, _make


# ----------------------------------------------------------------------
# Elementwise nonlinearities
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,), "exp")


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    a = x.data
    return _make(np.log(a), (x,), lambda g: (g / a,), "log")


def sqrt(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.sqrt(x.data)
    return _make(out, (x,), lambda g: (g * 0.5 / out,), "sqrt")


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    # Numerically stable logistic: exponentiate only non-positive values.
    a = x.data
    safe = np.where(a >= 0, -a, a)  # always <= 0, so exp never overflows
    ez = np.exp(safe)
    out = np.where(a >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return _make(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)
    return _make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0
    return _make(x.data * mask, (x,), lambda g: (g * mask,), "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    x = _as_tensor(x)
    slope = np.where(x.data > 0, 1.0, negative_slope)
    return _make(x.data * slope, (x,), lambda g: (g * slope,), "leaky_relu")


def gelu(x: Tensor, where: np.ndarray | None = None) -> Tensor:
    """Tanh-approximation GELU (as used by BERT).

    ``where`` is an optional boolean array over the leading axes of ``x``
    (numpy's ufunc convention, per row): output and gradient are computed on
    the selected rows, bit-equal to the unrestricted call there, and are
    zero elsewhere. A transformer passes its padding mask, because a padded
    row's activation is read by nothing (DESIGN.md "Training: only the rows
    that are read").
    """
    x = _as_tensor(x)
    rows = ... if where is None else np.asarray(where, dtype=bool)
    a = x.data[rows]
    c = np.sqrt(2.0 / np.pi)
    inner = c * (a + 0.044715 * a**3)
    t = np.tanh(inner)
    shape = x.data.shape

    def on_rows(values: np.ndarray) -> np.ndarray:
        full = np.zeros(shape)
        full[rows] = values
        return full

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * a * a)
        return (on_rows(g[rows] * (0.5 * (1.0 + t) + 0.5 * a * dt)),)

    return _make(on_rows(0.5 * a * (1.0 + t)), (x,), backward, "gelu")


def abs_(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    sign = np.sign(x.data)
    return _make(np.abs(x.data), (x,), lambda g: (g * sign,), "abs")


def clip(x: Tensor, low: float, high: float) -> Tensor:
    x = _as_tensor(x)
    mask = (x.data >= low) & (x.data <= high)
    return _make(np.clip(x.data, low, high), (x,), lambda g: (g * mask,), "clip")


def maximum(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    take_x = x.data >= y.data
    out = np.where(take_x, x.data, y.data)
    return _make(out, (x, y), lambda g: (g * take_x, g * (~take_x)), "maximum")


# ----------------------------------------------------------------------
# Reductions / normalisations
# ----------------------------------------------------------------------
def max_(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    a = x.data
    out = a.max(axis=axis, keepdims=True)
    mask = a == out
    # Split gradient evenly across ties, matching subgradient conventions.
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        grad = g if keepdims else np.expand_dims(g, axis)
        return (mask * grad / counts,)

    result = out if keepdims else out.squeeze(axis=axis)
    return _make(result, (x,), backward, "max")


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    a = x.data
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    ex = np.exp(a - m)
    s = ex.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    soft = ex / s

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        grad = g if keepdims else np.expand_dims(g, axis)
        return (soft * grad,)

    result = out if keepdims else out.squeeze(axis=axis)
    return _make(result, (x,), backward, "logsumexp")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    a = x.data
    m = a.max(axis=axis, keepdims=True)
    ex = np.exp(a - m)
    out = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    a = x.data
    m = a.max(axis=axis, keepdims=True)
    shifted = a - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (x,), backward, "log_softmax")


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> tuple:
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g: np.ndarray) -> tuple:
        parts = np.split(g, count, axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _make(data, tuple(tensors), backward, "stack")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    x = _as_tensor(x)
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep) / keep
    return _make(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


# ----------------------------------------------------------------------
# Gather / scatter / segment ops (the GNN workhorses)
# ----------------------------------------------------------------------
def scatter_add_rows(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``target[index[i]] += values[i]`` for every ``i``, in ``i`` order, in place.

    Bit-identical to ``np.add.at(target, index, values)`` for a 1-D integer
    ``index`` over the rows of ``target``, but ~5x faster on targets with
    two or more dimensions: the rows are expanded to flat element
    positions and accumulated through ``np.add.at`` on the 1-D view of
    ``target``, which takes numpy's contiguous fast path and still applies
    the additions to each element in the same ``i`` order as the N-d call.

    ``target`` must be C-contiguous (its 1-D view must alias it, not copy
    it); ``values`` broadcasts to ``(len(index),) + target.shape[1:]``.
    """
    if not target.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous target")
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise IndexError("scatter_add_rows needs a 1-D integer index")
    rows = target.shape[0]
    if index.size and (index.min() < -rows or index.max() >= rows):
        raise IndexError(f"row index out of bounds for {rows} rows")
    index = np.where(index < 0, index + rows, index).astype(np.intp, copy=False)
    values = np.broadcast_to(values, index.shape + target.shape[1:])
    width = math.prod(target.shape[1:])  # elements per row; 1 for a 1-D target
    flat = (index[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]`` with a scatter-add backward pass.

    ``index`` is a 1-D integer array; the output has shape
    ``(len(index),) + x.shape[1:]``. Used for embedding lookup and for
    reading per-edge source/target node features.
    """
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out = x.data[index]
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        grad = np.zeros(shape, dtype=dtype)
        scatter_add_rows(grad, index, g)
        return (grad,)

    return _make(out, (x,), backward, "gather_rows")


def scatter_sum(x: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Sum rows of ``x`` into ``num_rows`` buckets given by ``index``.

    The inverse of :func:`gather_rows`: ``out[i] = sum_{j: index[j]=i} x[j]``.
    """
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    scatter_add_rows(out, index, x.data)

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        return (g[index],)

    return _make(out, (x,), backward, "scatter_sum")


def edge_attention_logits(
    src_part: Tensor,
    dst_part: Tensor,
    vector: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
) -> Tensor:
    """Additive attention logits ``tanh(dst_part[dst] + src_part[src]) @ vector``.

    One node for what would otherwise be two gathers, a sum, a ``tanh`` and
    a matmul: the output has shape ``(E,)`` and only the ``(E, d)`` ``tanh``
    output, which the backward reads, stays alive until ``backward()``;
    the four other ``(E, d)`` arrays exist only while the op runs. Every value, and every gradient, is bit-identical to the
    composed graph, whose backward visits ``dst_part`` before ``src_part``
    — hence that parent order here.
    """
    src_part, dst_part, vector = (_as_tensor(t) for t in (src_part, dst_part, vector))
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    hidden = dst_part.data[dst] + src_part.data[src]
    np.tanh(hidden, out=hidden)
    v = vector.data
    out = (hidden @ v).reshape(len(src))
    dst_shape, dst_dtype = dst_part.data.shape, dst_part.data.dtype
    src_shape, src_dtype = src_part.data.shape, src_part.data.dtype

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = g.reshape(len(src), 1)
        g_vector = hidden.T @ g
        g_pre = (g @ v.T) * (1.0 - hidden * hidden)
        g_dst = np.zeros(dst_shape, dtype=dst_dtype)
        scatter_add_rows(g_dst, dst, g_pre)
        g_src = np.zeros(src_shape, dtype=src_dtype)
        scatter_add_rows(g_src, src, g_pre)
        return g_dst, g_src, g_vector

    return _make(out, (dst_part, src_part, vector), backward, "edge_attention_logits")


def weighted_scatter(
    h: Tensor, weights: Tensor, src: np.ndarray, dst: np.ndarray, num_rows: int
) -> Tensor:
    """Weighted message passing: ``out[i] = sum_{e: dst[e]=i} weights[e] * h[src[e]]``.

    ``weights`` has shape ``(E,)``. The ``(E, d)`` messages exist only while
    the op runs: ``backward()`` re-gathers ``h[src]`` rather than keeping
    it, so the node holds no per-edge array but ``weights``. Bit-identical
    to ``scatter_sum(gather_rows(h, src) * weights.reshape(E, 1), dst, n)``.
    """
    h, weights = _as_tensor(h), _as_tensor(weights)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    x = h.data
    w = weights.data.reshape(len(src), 1)
    out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
    scatter_add_rows(out, dst, x[src] * w)

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g_messages = g[dst]
        g_weights = (g_messages * x[src]).sum(axis=1)
        g_messages *= w
        g_h = np.zeros(x.shape, dtype=x.dtype)
        scatter_add_rows(g_h, src, g_messages)
        return g_h, g_weights

    return _make(out, (h, weights), backward, "weighted_scatter")


def scatter_mean(x: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Average rows of ``x`` per bucket; empty buckets yield zeros."""
    index = np.asarray(index, dtype=np.int64)
    counts = np.bincount(index, minlength=num_rows).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    summed = scatter_sum(x, index, num_rows)
    shape = (num_rows,) + (1,) * (summed.ndim - 1)
    return summed * (1.0 / counts.reshape(shape))


def segment_softmax(logits: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over variable-sized segments (e.g. edges grouped by target).

    ``logits`` has shape ``(E,)`` or ``(E, H)`` (H = attention heads);
    the softmax normalises within each segment independently per column.
    """
    logits = _as_tensor(logits)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    a = logits.data
    squeeze = False
    if a.ndim == 1:
        a = a[:, None]
        squeeze = True

    # Per-segment max for numerical stability (no gradient through the max).
    seg_max = np.full((num_segments, a.shape[1]), -np.inf)
    np.maximum.at(seg_max, segment_ids, a)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    shifted = a - seg_max[segment_ids]
    ex = np.exp(shifted)
    width = a.shape[1]
    denom = np.zeros((num_segments, width))
    scatter_add_rows(denom, segment_ids, ex)
    out = ex / denom[segment_ids]

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        gg = g[:, None] if g.ndim == 1 else g
        weighted = (gg * out)
        seg_dot = np.zeros((num_segments, width))
        scatter_add_rows(seg_dot, segment_ids, weighted)
        grad = out * (gg - seg_dot[segment_ids])
        return (grad[:, 0] if squeeze else grad,)

    result = out[:, 0] if squeeze else out
    return _make(result, (logits,), backward, "segment_softmax")


def embedding_lookup(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Alias of :func:`gather_rows` with an embedding-flavoured name."""
    return gather_rows(weight, ids)


def where_const(condition: np.ndarray, x: Tensor, other: float) -> Tensor:
    """``np.where(condition, x, other)`` with gradient only through ``x``."""
    x = _as_tensor(x)
    condition = np.asarray(condition, dtype=bool)
    out = np.where(condition, x.data, other)
    return _make(out, (x,), lambda g: (g * condition,), "where_const")
