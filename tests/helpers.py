"""Test utilities: finite-difference gradient checking, training oracles."""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from repro.resilience import atomic_write_bytes, sha256_hex
from repro.tensor import (
    Tensor,
    gather_rows,
    gelu,
    log_softmax,
    scatter_sum,
    segment_softmax,
    sigmoid,
    tanh,
)
from repro.text import UserEntitySequence


def numeric_gradient(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` of a Tensor."""
    x = x0.copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(Tensor(x)).data)
        flat[i] = original - eps
        minus = float(fn(Tensor(x)).data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def assert_gradcheck(fn, x0: np.ndarray, tol: float = 1e-5) -> None:
    """Compare autograd and numeric gradients of scalar ``fn``."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = fn(x)
    out.backward()
    numeric = numeric_gradient(fn, x0)
    error = np.abs(numeric - x.grad).max()
    assert error < tol, f"gradcheck failed: max abs error {error}"


def composed_cross_entropy(logits, targets, mask=None):
    """The graph ``cross_entropy`` was before it became one node: the oracle."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    picked = flat[np.arange(flat.shape[0]), targets.reshape(-1)]
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64).reshape(-1)
        denom = float(m.sum()) or 1.0
        return -(picked * m).sum() * (1.0 / denom)
    return -picked.mean()


def plain_gelu(x, where=None):
    """``gelu`` over every row, padding included: the oracle for ``where=``."""
    return gelu(x)


def summed_weight_grad(a, g):
    """The weight gradient of ``a @ w`` as the matmul backward formed it
    before it was chunked — one ``(B, k, n)`` product summed over the
    leading axes: the oracle for ``_batched_weight_grad``."""
    gb = np.swapaxes(a, -1, -2) @ g
    return gb.sum(axis=tuple(range(gb.ndim - 2)))


def npy_bytes(array):
    """``array`` serialised in memory the way artifacts were written before
    the streaming writer: the oracle for ``atomic_write_array``."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    return buffer.getvalue()


def bytesio_write_array(path, array) -> str:
    """The old artifact writer: serialise, then write the bytes atomically."""
    data = npy_bytes(array)
    atomic_write_bytes(path, data)
    return sha256_hex(data)


def composed_geniepath_breadth(self, h, memory, src, dst, num_nodes):
    """``GeniePathLayer.forward`` as it was before its breadth step became
    two fused edge ops — gathers, sum, ``tanh``, matmul, message gather and
    product, each its own graph node: the oracle for
    ``edge_attention_logits`` / ``weighted_scatter``. Patch it over
    ``GeniePathLayer.forward`` to train the composed graph."""
    loop = np.arange(num_nodes)
    src = np.concatenate([src, loop])
    dst = np.concatenate([dst, loop])

    src_part = self.attn_src(h)
    dst_part = self.attn_dst(h)
    edge_hidden = tanh(gather_rows(dst_part, dst) + gather_rows(src_part, src))
    logits = (edge_hidden @ self.attn_vector).reshape(len(src))
    weights = segment_softmax(logits, dst, num_nodes)
    messages = gather_rows(h, src) * weights.reshape(len(src), 1)
    neighborhood = scatter_sum(messages, dst, num_nodes)
    candidate = tanh(self.breadth_linear(neighborhood))

    gates = self.gate_linear(candidate)
    i_gate = sigmoid(gates[:, : self.dim])
    f_gate = sigmoid(gates[:, self.dim : 2 * self.dim])
    o_gate = sigmoid(gates[:, 2 * self.dim : 3 * self.dim])
    c_tilde = tanh(gates[:, 3 * self.dim :])
    new_memory = f_gate * memory + i_gate * c_tilde
    new_h = o_gate * tanh(new_memory)
    return new_h, new_memory


def reference_extract_sequences(extractor, events, as_of_day=None):
    """``EntitySequenceExtractor.extract_sequences`` as it was before logs
    became columns — events sorted by ``(day, user_id)`` and read one event
    object at a time: the oracle for the column path, dict order included."""
    events = list(events)
    if not events:
        return {}
    if as_of_day is None:
        as_of_day = max(e.day for e in events)
    lo = as_of_day - extractor.window_days

    ordered = sorted(events, key=lambda e: (e.day, e.user_id))
    sequences = {}
    for event in ordered:
        if not (lo < event.day <= as_of_day):
            continue
        seq = sequences.setdefault(event.user_id, UserEntitySequence(event.user_id))
        seq.entity_ids.extend(extractor.extract_event(event))
    return sequences


def child_pids() -> list[int]:
    """Pids whose parent is this process — zombies included, so an empty
    list means every child was both stopped and reaped."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited between the listing and the read
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(int(entry.name))
    return found
