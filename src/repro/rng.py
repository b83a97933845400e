"""Seeded random-number helpers.

All stochastic components in the library accept either an integer seed or a
:class:`numpy.random.Generator`. Routing everything through :func:`ensure_rng`
keeps experiments reproducible end to end: the same seed always yields the
same world, the same training batches and the same benchmark rows.
"""

from __future__ import annotations

import numpy as np

#: Default seed used by examples and benchmarks.
DEFAULT_SEED = 20230419


def ensure_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed_or_rng``.

    Accepts ``None`` (fresh default seed), an ``int`` seed, or an existing
    generator (returned unchanged so callers can share a stream).
    """
    if seed_or_rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(int(seed_or_rng))


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators."""
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


def normalised_cdf(p: np.ndarray) -> np.ndarray:
    """``p``'s cumulative sum divided by its last entry, as ``Generator.choice`` forms it."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def weighted_choice(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with probabilities ``p``: ``int(rng.choice(len(p), p=p))``.

    Runs the algorithm ``Generator.choice`` runs — cumulative sum, divide by
    its last entry, one ``rng.random()``, ``searchsorted(side="right")`` —
    so it consumes the same double and returns the same index, without the
    per-call validation of ``p`` (the caller's job, once).
    """
    return int(normalised_cdf(p).searchsorted(rng.random(), side="right"))


def weighted_sample_distinct(
    rng: np.random.Generator,
    p: np.ndarray,
    size: int,
    cdf: np.ndarray | None = None,
) -> np.ndarray:
    """``size`` distinct indices: ``rng.choice(len(p), size, replace=False, p=p)``.

    The same draw-and-redraw loop as ``Generator.choice``: draw what is still
    missing, keep first occurrences in draw order, zero the found entries of
    ``p`` and draw again — same doubles consumed, same indices in the same
    order. ``cdf`` is ``normalised_cdf(p)`` when the caller
    already has it (the first round's; redraws recompute their own).
    ``p`` is not validated per draw (finite, non-negative: the caller's job,
    once); fewer than ``size`` positive entries raises ``ValueError``.
    """
    if cdf is None:
        cdf = normalised_cdf(p)
    found = np.empty(size, dtype=np.int64)
    n_found = 0
    remaining = None
    while True:
        new = cdf.searchsorted(rng.random((size - n_found,)), side="right")
        if new.size > 1:  # first occurrences, in draw order
            _, first = np.unique(new, return_index=True)
            first.sort()
            new = new.take(first)
        found[n_found : n_found + new.size] = new
        n_found += new.size
        if n_found == size:
            return found
        if remaining is None:
            remaining = np.array(p, dtype=np.float64)
        remaining[found[:n_found]] = 0
        if not remaining.any():
            raise ValueError("fewer positive entries in p than size")
        cdf = normalised_cdf(remaining)
