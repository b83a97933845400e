"""Reverse-mode automatic differentiation on top of numpy.

This module implements the :class:`Tensor` class used by every neural model
in the library (NER tagger, mini-BERT, GNN encoders, ALPC, ensemble). It is a
deliberately small engine: a ``Tensor`` wraps a ``numpy.ndarray``, and an op
on tensors that need gradients records a graph node holding the closure that
propagates gradients to its parents' nodes; :meth:`Tensor.backward` walks the
nodes in reverse topological order.

Design notes
------------
* ``float64`` is the default dtype. The models in this project are small, and
  double precision makes finite-difference gradient checks tight.
* Broadcasting is supported for elementwise arithmetic; the backward pass
  sums gradients back down to each parent's shape (:func:`unbroadcast`).
* Graph recording can be disabled with :func:`no_grad` for cheap inference.
* The graph links nodes, not tensors (PyTorch's saved-tensor model). A node
  keeps its closure, its parents' nodes and its output's shape and dtype;
  only a leaf's node keeps its tensor, whose ``grad`` it fills. An op's
  output array therefore lives exactly as long as Python code or some
  backward closure refers to it. A closure captures the arrays its
  gradient formula reads and only the shapes and dtypes of the rest.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Union

import numpy as np

from repro.errors import GradientError

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad mode is per-thread: the serving read path wraps inference in
# ``no_grad()`` on many threads at once, and a process-global flag would let
# racing enter/exit pairs restore each other's saved state — permanently
# disabling recording for every later training run in the process.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording inside the block.

    Affects only the calling thread; concurrent threads keep their own mode.
    """
    previous = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new operations currently record the autograd graph."""
    return _grad_enabled()


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


#: Bytes of per-row weight-gradient products that :func:`_batched_weight_grad`
#: forms at once (at least one row).
WEIGHT_GRAD_CHUNK_BYTES = 512 * 1024


def weight_grad_chunk_rows(k: int, n: int, itemsize: int) -> int:
    """Rows of ``k × n`` products of ``itemsize`` bytes formed per chunk."""
    return max(1, WEIGHT_GRAD_CHUNK_BYTES // (k * n * itemsize))


def _batched_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``(swapaxes(a, -1, -2) @ g).sum(leading axes)``, in bounded memory.

    The gradient of a 2-D weight applied to ``a`` of shape ``(..., m, k)``.
    Formed in one go it materialises a ``(B, k, n)`` tensor (B = the product
    of the leading axes): 16 MB per linear layer for the ensemble's
    ``(2048, 4, 32) @ (32, 32)``. Here as many rows as fit in
    ``WEIGHT_GRAD_CHUNK_BYTES`` (64 for that layer, one for the MLM head's
    ``(32, 1060)``) land in one reused buffer behind row 0, which holds the
    running sum, so each slice is reduced with the same ``.sum(axis=0)``
    and the additions run in exactly the order of the one-shot reduction —
    the result is bit-identical. (That reduction adds row by row only when ``k·n > 1``;
    a single weight is summed pairwise, so the caller keeps it one-shot.)
    """
    a = a.reshape(-1, *a.shape[-2:])
    g = g.reshape(-1, *g.shape[-2:])
    rows = a.shape[0]
    dtype = np.result_type(a, g)
    chunk = weight_grad_chunk_rows(a.shape[-1], g.shape[-1], dtype.itemsize)
    buffer = np.empty((min(rows, chunk) + 1, a.shape[-1], g.shape[-1]), dtype=dtype)
    total = None
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        block = buffer[: stop - start + 1]
        np.matmul(np.swapaxes(a[start:stop], -1, -2), g[start:stop], out=block[1:])
        if total is None:
            total = block[1:].sum(axis=0)
        else:
            block[0] = total
            total = block.sum(axis=0)
    return total


class _Node:
    """One recorded op, as :meth:`Tensor.backward` needs it and no more.

    ``parents`` holds one entry per op input: that input's node, or
    ``None`` for a constant (nothing flows there). ``shape`` and ``dtype``
    are the op output's, which is all :func:`unbroadcast` needs of it. A
    leaf that requires grad gets a fresh node, without closure, each time
    an op reads it; ``leaf`` is the tensor its gradient goes into, and
    ``key`` (the leaf's id, else the node's) makes those nodes one vertex
    of the walk. ``op`` names the op, for ``repr``.
    """

    __slots__ = ("backward_fn", "parents", "shape", "dtype", "leaf", "key", "op")

    def __init__(
        self,
        backward_fn: Callable[[np.ndarray], tuple | None] | None,
        parents: tuple["_Node | None", ...],
        shape: tuple[int, ...],
        dtype: np.dtype,
        op: str = "",
        leaf: "Tensor | None" = None,
    ) -> None:
        self.backward_fn = backward_fn
        self.parents = parents
        self.shape = shape
        self.dtype = dtype
        self.op = op
        self.leaf = leaf
        self.key = id(self if leaf is None else leaf)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``; stored as ``float64``
        unless ``dtype`` is given.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        #: The node of the op that produced this tensor, when recorded.
        self._node: _Node | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = self._node.op if self._node is not None else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={op!r})"

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ``1.0`` and therefore requires a scalar output;
        pass an explicit cotangent for non-scalar roots.

        The graph is freed as it is walked (PyTorch's ``retain_graph=False``):
        a node drops its closure and parents once its gradient has been
        propagated, so the arrays step *k*'s closures saved are gone before
        step *k + 1* builds its own graph. Going through a freed node again
        raises :class:`GradientError`; run the forward pass again instead.
        """
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() on a non-scalar tensor requires an explicit grad"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"grad shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        root = self._node
        if root is None:
            if self.requires_grad:
                self._accumulate_grad(grad)
            return
        grads: dict[int, np.ndarray] = {root.key: grad}
        for node in _topological_order(root):
            node_grad = grads.pop(node.key, None)
            if node_grad is None:
                continue
            if node.leaf is not None:
                if node.leaf.requires_grad:
                    node.leaf._accumulate_grad(node_grad)
                continue
            parent_grads = node.backward_fn(node_grad)
            parents = node.parents
            node.backward_fn, node.parents = _freed_graph, ()
            if parent_grads is None:
                continue
            for parent, pgrad in zip(parents, parent_grads):
                if parent is None or pgrad is None:
                    continue
                pgrad = unbroadcast(np.asarray(pgrad, dtype=parent.dtype), parent.shape)
                key = parent.key
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # Arithmetic (elementwise, broadcasting)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        return _make(
            self.data + other.data,
            (self, other),
            lambda g: (g, g),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        return _make(
            self.data - other.data,
            (self, other),
            lambda g: (g, -g),
            "sub",
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.data, other.data
        return _make(
            a * b,
            (self, other),
            lambda g: (g * b, g * a),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.data, other.data
        return _make(
            a / b,
            (self, other),
            lambda g: (g / b, -g * a / (b * b)),
            "div",
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return _make(-self.data, (self,), lambda g: (-g,), "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports python scalars")
        a = self.data
        out = a**exponent
        return _make(
            out,
            (self,),
            lambda g: (g * exponent * a ** (exponent - 1),),
            "pow",
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.data, other.data
        out = a @ b

        def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            if a.ndim == 1 and b.ndim == 1:
                return g * b, g * a
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (g[..., None, :] * b).sum(axis=-1)
                gb = a[..., :, None] * g[..., None, :]
                return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
            if b.ndim == 1:  # (..., m, k) @ (k,)
                ga = g[..., :, None] * b
                gb = (a * g[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
                return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)
            ga = g @ np.swapaxes(b, -1, -2)
            if a.ndim > 2 and b.ndim == 2 and b.size > 1 and a.size:
                # A linear layer over a non-empty batch: never hold the
                # (B, k, n) per-row products at once.
                return ga, _batched_weight_grad(a, g)
            gb = np.swapaxes(a, -1, -2) @ g
            return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)

        return _make(out, (self, other), backward, "matmul")

    # Comparison operators return plain boolean arrays (no gradient).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _raw(other)

    # ------------------------------------------------------------------
    # Shape ops used as methods (full set lives in repro.tensor.ops)
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        return _make(
            self.data.reshape(shape),
            (self,),
            lambda g: (g.reshape(original),),
            "reshape",
        )

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        return _make(
            self.data.transpose(axes),
            (self,),
            lambda g: (g.transpose(inverse),),
            "transpose",
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray) -> tuple[np.ndarray]:
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    grad = np.expand_dims(grad, ax)
            return (np.broadcast_to(grad, shape).copy(),)

        return _make(np.asarray(out), (self,), backward, "sum")

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        shape, dtype = self.data.shape, self.data.dtype

        def backward(g: np.ndarray) -> tuple[np.ndarray]:
            from repro.tensor.ops import scatter_add_rows  # ops imports this module

            grad = np.zeros(shape, dtype=dtype)
            if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
                scatter_add_rows(grad, index, g)
            else:  # slices, masks, index tuples: few elements or no duplicates
                np.add.at(grad, index, g)
            return (grad,)

        return _make(np.asarray(out), (self,), backward, "getitem")


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value: ArrayLike) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _parent_node(tensor: Tensor) -> _Node | None:
    """The node an op's gradient reaches ``tensor`` through, if any."""
    if tensor._node is not None:
        return tensor._node
    if tensor.requires_grad:
        return _Node(None, (), tensor.data.shape, tensor.data.dtype, leaf=tensor)
    return None


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], tuple],
    op: str,
) -> Tensor:
    """Create a result tensor, recording a node only when a parent needs one.

    The node refers to the parents' nodes, never to the parent tensors, so
    recording keeps no input array alive that ``backward_fn`` does not hold.
    """
    out = Tensor(data)
    if _grad_enabled():
        nodes = tuple(_parent_node(p) for p in parents)
        if any(node is not None for node in nodes):
            out._node = _Node(backward_fn, nodes, out.data.shape, out.data.dtype, op)
    return out


def _freed_graph(grad: np.ndarray) -> None:
    """The ``backward_fn`` of a node an earlier ``backward()`` walked."""
    raise GradientError(
        "backward() through a graph that an earlier backward() already freed; "
        "run the forward pass again"
    )


def _topological_order(root: _Node) -> list[_Node]:
    """Return nodes reachable from ``root`` in reverse topological order."""
    order: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node.key in visited:
            continue
        visited.add(node.key)
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and parent.key not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Public coercion helper: wrap ``value`` in a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
