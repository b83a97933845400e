"""Artifact-to-artifact drift measurement for the weekly/daily refresh loop.

The dangerous production failures are silent: a weekly TRMP run that
publishes an empty graph, or a preference index whose scores collapsed to
a constant. This module turns each hot-swap into a measured comparison
between the outgoing and incoming artifact:

* **graph drift** — edge counts and entity/edge churn (set deltas over
  canonical pairs), with ``edge_jaccard`` as the week-to-week retention;
* **preference drift** — top-K user overlap per deterministic probe entity
  (does the same ad still reach the same people?) and the spread of the
  pooled probe scores.

:func:`graph_report` / :func:`preference_report` wrap a measurement in a
:class:`DriftReport`. Exactly two findings are ``critical``: an empty graph
and zero-variance scores — the failures gating exists for. Everything else
is measured, not classified. Reports are JSON-safe so the registry can
persist them next to the artifact and ``/drift`` can serve them verbatim.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

SEVERITY_OK = "ok"
SEVERITY_CRITICAL = "critical"

#: How many deterministic probe entities sample the preference scores.
PROBE_ENTITIES = 16
#: Top-K depth for per-probe audience overlap.
TOP_K = 20
#: Pooled probe scores with a standard deviation below this are constant.
DEGENERATE_SCORE_STD = 1e-12


@dataclass
class DriftReport:
    """One artifact transition, measured and classified."""

    kind: str  # "graph" | "preferences"
    old_version: int | None
    new_version: int
    computed_at: float
    severity: str = SEVERITY_OK
    reasons: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Set by the serving runtime when the report refused the hot-swap
    #: that produced it.
    gated: bool = False

    @property
    def is_critical(self) -> bool:
        return self.severity == SEVERITY_CRITICAL

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DriftReport":
        return cls(**data)


def topk_overlap(old_ids, new_ids) -> float:
    """Fractional overlap of two ranked id lists (order-insensitive).

    Normalised by the *shorter* list, so a store that can only rank fewer
    users (smaller coverage) is not penalised for its size.
    """
    old_set, new_set = set(old_ids), set(new_ids)
    if not old_set and not new_set:
        return 1.0
    denom = min(len(old_set), len(new_set))
    if denom == 0:
        return 0.0
    return len(old_set & new_set) / denom


# ----------------------------------------------------------------------
# Graph drift
# ----------------------------------------------------------------------
def _as_entity_graph(graph):
    """Accept an :class:`~repro.graph.EntityGraph` or anything exposing
    ``graph()`` (a frozen :class:`~repro.graph.csr.CSRGraph`)."""
    if hasattr(graph, "canonical_pairs"):
        return graph
    return graph.graph()


def compare_graphs(old_graph, new_graph) -> dict:
    """Structural deltas between two published entity graphs."""
    old = _as_entity_graph(old_graph)
    new = _as_entity_graph(new_graph)

    old_edges = set(zip(*(a.tolist() for a in old.canonical_pairs())))
    new_edges = set(zip(*(a.tolist() for a in new.canonical_pairs())))
    edge_union = old_edges | new_edges
    retained = old_edges & new_edges

    old_active = set(np.flatnonzero(old.degrees()).tolist())
    new_active = set(np.flatnonzero(new.degrees()).tolist())
    node_union = old_active | new_active

    def _churn(union: set, kept: set) -> float:
        return (len(union) - len(kept)) / len(union) if union else 0.0

    return {
        "old_edges": len(old_edges),
        "new_edges": len(new_edges),
        "edges_added": len(new_edges - old_edges),
        "edges_removed": len(old_edges - new_edges),
        "edge_churn": _churn(edge_union, retained),
        "edge_jaccard": (len(retained) / len(edge_union)) if edge_union else 1.0,
        "edge_ratio": (len(new_edges) / len(old_edges)) if old_edges else None,
        "old_active_entities": len(old_active),
        "new_active_entities": len(new_active),
        "entities_added": len(new_active - old_active),
        "entities_removed": len(old_active - new_active),
        "entity_churn": _churn(node_union, old_active & new_active),
    }


# ----------------------------------------------------------------------
# Preference drift
# ----------------------------------------------------------------------
def default_probe_entities(num_entities: int, count: int) -> list[int]:
    """A deterministic, evenly spaced probe set over the entity id range.

    Probes must be *fixed across versions* — a re-sampled probe set would
    fold sampling noise into the drift signal.
    """
    count = max(1, min(count, num_entities))
    return [int(i) for i in np.linspace(0, num_entities - 1, count).round()]


def compare_preference_stores(
    old_store, new_store, probe_entities: list[int], top_k: int = TOP_K
) -> dict:
    """Audience overlap and score spread between preference indexes.

    The new store is scored once for all probes
    (:meth:`~repro.preference.store.PreferenceStore.score_entities`), and
    each probe's top-K comes from its own row of scores. Scores, top-K
    lists and the pooled spread have the bits per-probe
    ``top_users_for_entity`` calls give.
    """
    num_entities = min(
        len(old_store.entity_embeddings), len(new_store.entity_embeddings)
    )
    probes = [e for e in probe_entities if 0 <= e < num_entities]

    new_scores = new_store.score_entities(probes)
    overlaps = []
    for entity_id, scores in zip(probes, new_scores):
        old_top = [u.user_id for u in old_store.top_users_for_entity(entity_id, top_k)]
        new_top = new_store.top_user_ids(scores, top_k).tolist()
        overlaps.append(topk_overlap(old_top, new_top))

    # Row by row, so the pooled array is the probes' finite scores
    # concatenated in probe order.
    pooled_new = new_scores[np.isfinite(new_scores)]
    new_std = float(np.std(pooled_new)) if pooled_new.size else None

    return {
        "probe_entities": probes,
        "top_k": top_k,
        "topk_overlap_mean": float(np.mean(overlaps)) if overlaps else None,
        "topk_overlap_min": float(np.min(overlaps)) if overlaps else None,
        "topk_overlap_per_probe": [float(o) for o in overlaps],
        "new_score_std": new_std,
        "degenerate_scores": new_std is None or new_std < DEGENERATE_SCORE_STD,
    }


# ----------------------------------------------------------------------
# Reports: measure, then name the refusal reason (if any)
# ----------------------------------------------------------------------
def _report(kind, old_version, new_version, computed_at, measured, reasons) -> DriftReport:
    return DriftReport(
        kind=kind,
        old_version=old_version,
        new_version=new_version,
        computed_at=computed_at,
        severity=SEVERITY_CRITICAL if reasons else SEVERITY_OK,
        reasons=reasons,
        metrics=measured,
    )


def graph_report(
    old_graph, new_graph, old_version: int | None, new_version: int, computed_at: float
) -> DriftReport:
    """Measure a graph transition; ``empty_graph`` when the new one has no edges."""
    measured = compare_graphs(old_graph, new_graph)
    reasons = ["empty_graph"] if measured["new_edges"] == 0 else []
    return _report("graph", old_version, new_version, computed_at, measured, reasons)


def preference_report(
    old_store, new_store, old_version: int | None, new_version: int, computed_at: float
) -> DriftReport:
    """Measure a preference transition; ``degenerate_scores`` when the new
    store's pooled probe scores are constant."""
    probes = default_probe_entities(len(new_store.entity_embeddings), PROBE_ENTITIES)
    measured = compare_preference_stores(old_store, new_store, probes)
    reasons = ["degenerate_scores"] if measured["degenerate_scores"] else []
    return _report(
        "preferences", old_version, new_version, computed_at, measured, reasons
    )


__all__ = [
    "SEVERITY_OK",
    "SEVERITY_CRITICAL",
    "DriftReport",
    "topk_overlap",
    "compare_graphs",
    "compare_preference_stores",
    "default_probe_entities",
    "graph_report",
    "preference_report",
]
