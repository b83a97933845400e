"""Test utilities: finite-difference gradient checking, training oracles."""

from __future__ import annotations

import io
import mmap
import os
from pathlib import Path

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.preference import PreferenceStore, UserScore, user_embedding_matrix
from repro.preference.store import _combine_matrix, _row_dots, _top_k_rows, _union_ids
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


def _v3_interaction_rows(sequences, num_users, num_entities):
    """CSR ``(row_ptr, col_idx, values)`` of ``freq_u(e)`` = share of
    user ``u``'s sequence spent on entity ``e``."""
    active = [(u, seq.entity_ids) for u, seq in sequences.items() if len(seq)]
    lengths = np.zeros(num_users, dtype=np.int64)
    if active:
        users = np.asarray([u for u, _ in active], dtype=np.int64)
        lengths[users] = [len(ids) for _, ids in active]
        events = np.concatenate([np.asarray(ids, dtype=np.int64) for _, ids in active])
        keys, counts = np.unique(
            np.repeat(users, lengths[users]) * num_entities + events,
            return_counts=True,
        )
    else:
        keys = counts = np.zeros(0, dtype=np.int64)
    rows, cols = np.divmod(keys, num_entities)
    row_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=num_users))]
    ).astype(np.int64)
    return row_ptr, cols, counts / lengths[rows]


class DenseV3PreferenceIndex:
    """The ``pref-mm-v3`` preference index and its kernel as they were
    before the artifact held covered users only: one row per user id, a
    ``covered`` mask, the interactions as CSR over the users, every request
    scoring all users and masking the uncovered ones to ``-inf``. In-memory
    arrays, no timing phases: the byte-equality oracle for
    :class:`PreferenceStore`. It answers the calls
    ``compare_preference_stores`` makes, so drift metrics can be taken
    from it too."""

    def __init__(self, entity_embeddings, sequences, num_users, normalize=True,
                 direct_weight=25.0):
        embeddings = PreferenceStore(
            entity_embeddings, normalize=normalize, direct_weight=direct_weight
        ).entity_embeddings
        self.entity_embeddings = embeddings
        self.direct_weight = direct_weight
        self.num_users = num_users
        self.user_matrix, self.covered_users = user_embedding_matrix(
            embeddings, sequences, num_users
        )
        self.row_ptr, self.col_idx, self.values = _v3_interaction_rows(
            sequences, num_users, len(embeddings)
        )

    def _require_built(self) -> None:
        if self.user_matrix is None:
            raise NotFittedError("PreferenceStore.build has not been called")

    def score_entities(self, entity_ids: list[int]) -> np.ndarray:
        self._require_built()
        queries = self.entity_embeddings[np.asarray(entity_ids, dtype=np.int64)]
        scores = np.empty((len(queries), self.num_users))
        for start in range(0, self.num_users, 1024):
            block = self.user_matrix[start : start + 1024]
            for out, query in zip(scores, queries):
                out[start : start + len(block)] = _row_dots(block, query)
        if self.direct_weight:
            for out, entity_id in zip(scores, entity_ids):
                hits = np.flatnonzero(self.col_idx == entity_id)
                rows = np.searchsorted(self.row_ptr, hits, side="right") - 1
                out[rows] += self.direct_weight * self.values[hits]
        return np.where(self.covered_users, scores, -np.inf)

    def top_user_ids(self, scores: np.ndarray, k: int) -> np.ndarray:
        return _top_k_rows(scores, min(k, int(self.covered_users.sum())))

    def top_users_for_entity(self, entity_id: int, k: int) -> list[UserScore]:
        return self.top_users_for_entity_sets([[int(entity_id)]], k)[0]

    def top_users_for_entities(self, entity_ids, k, weights=None) -> list[UserScore]:
        self._require_built()
        if not entity_ids:
            raise ConfigError("need at least one entity to target users")
        return self.top_users_for_entity_sets(
            [list(entity_ids)], k, None if weights is None else [weights]
        )[0]

    def top_users_for_entity_sets(self, entity_sets, k, weights=None):
        self._require_built()
        if not entity_sets:
            return []
        if any(not ids for ids in entity_sets):
            raise ConfigError("need at least one entity to target users")
        if weights is not None and len(weights) != len(entity_sets):
            raise ConfigError("weights must align with entity_sets")
        union_ids = _union_ids(entity_sets)
        combine = _combine_matrix(entity_sets, weights, union_ids)
        # (sets, dim), one contiguous query per set.
        queries = np.ascontiguousarray(
            (self.entity_embeddings[union_ids].T @ combine).T
        )
        k_eff = min(k, int(self.covered_users.sum()))
        if k_eff < 1:
            return [[] for _ in entity_sets]
        scores = np.stack([_row_dots(self.user_matrix, query) for query in queries])
        if self.direct_weight:
            # Direct-preference term from the CSR rows whose entity is
            # in the request's union: O(nnz), summed per row in CSR
            # order. ``slot_of`` maps an entity id to its combine row
            # (or -1) without a dense gather.
            slot_of = np.full(len(self.entity_embeddings), -1, dtype=np.int64)
            slot_of[union_ids] = np.arange(len(union_ids))
            slots = slot_of[self.col_idx]
            hits = np.flatnonzero(slots >= 0)
            rows = np.searchsorted(self.row_ptr, hits, side="right") - 1
            shares = self.values[hits, None] * combine[slots[hits]]
            for i, out in enumerate(scores):
                out += self.direct_weight * np.bincount(
                    rows, weights=shares[:, i], minlength=self.num_users
                )
        scores = np.where(self.covered_users, scores, -np.inf)
        answers: list[list[UserScore]] = []
        for row in scores:
            chosen = _top_k_rows(row, k_eff)
            answers.append(
                [
                    UserScore(u, s)
                    for u, s in zip(chosen.tolist(), row[chosen].tolist())
                ]
            )
        return answers


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


def assert_owned_read_only(array) -> None:
    """``array`` is a read-only ``ndarray`` whose bytes this process owns:
    no ``np.memmap`` and no ``mmap.mmap`` anywhere in its ``.base`` chain."""
    assert type(array) is np.ndarray and not array.flags.writeable
    while array is not None:
        assert not isinstance(array, (mmap.mmap, np.memmap)), type(array)
        array = getattr(array, "base", None)
