"""Artifact-to-artifact drift detection for the weekly/daily refresh loop.

The dangerous production failures are silent: a weekly TRMP run that
publishes a degenerate graph, a preference index whose score distribution
collapsed, a retrain that quietly reshuffled every audience. This module
turns each hot-swap into a measured comparison between the outgoing and
incoming artifact:

* **graph drift** — entity/edge churn (set deltas over canonical pairs),
  degree-distribution shift, relation-type mix shift;
* **preference drift** — PSI and KL divergence over fixed-bucket score
  histograms sampled at a deterministic probe entity set, plus top-K user
  overlap per probe entity (does the same ad still reach the same people?).

A :class:`DriftMonitor` classifies the measurements against configurable
thresholds into a :class:`DriftReport` (``ok`` / ``warning`` /
``critical``). Reports are JSON-safe so the registry can persist them next
to the artifact and the telemetry endpoint can serve them verbatim.
Degenerate artifacts (empty graph, zero-variance scores) are always
``critical`` regardless of thresholds — those are the failures gating
exists for.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.graph.entity_graph import RELATION_NAMES
from repro.obs.clock import Clock

SEVERITY_OK = "ok"
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

_SEVERITY_RANK = {SEVERITY_OK: 0, SEVERITY_WARNING: 1, SEVERITY_CRITICAL: 2}

#: Proportion floor used when a histogram bucket is empty: PSI/KL divide by
#: bucket shares, and an exact zero would make a single empty bucket infinite.
_EPS = 1e-4


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds for classifying artifact drift.

    PSI conventions follow credit-scoring practice (<0.1 stable, 0.1–0.25
    moderate, >0.25 shifted) but the *critical* bar is set far higher: on
    the synthetic world every weekly retrain re-draws embeddings from a new
    seed, so moderate PSI is the healthy baseline and only a
    distribution collapse (PSI in the several-nats range, as produced by a
    zeroed or constant artifact) should block a swap. See EXPERIMENTS.md.
    """

    bins: int = 10
    #: How many deterministic probe entities sample the score distribution.
    probe_entities: int = 16
    #: Top-K depth for per-probe audience overlap.
    top_k: int = 20
    psi_warning: float = 0.25
    psi_critical: float = 2.0
    #: Fraction of the edge (or active-entity) union that churned.
    churn_warning: float = 0.6
    churn_critical: float = 0.98
    #: Mean top-K user overlap below these marks is suspicious/critical.
    overlap_warning: float = 0.3
    overlap_critical: float = 0.05
    #: New graph keeping under this fraction of the old edge count is a
    #: degenerate publish even if churn math looks finite.
    edge_ratio_critical: float = 0.05


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
    #: Set by the serving runtime when reject-on-critical-drift blocked the
    #: hot-swap that produced this report.
    gated: bool = False

    @property
    def is_critical(self) -> bool:
        return self.severity == SEVERITY_CRITICAL

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DriftReport":
        return cls(**data)


# ----------------------------------------------------------------------
# Distribution shift primitives (PSI / KL over fixed-bucket histograms)
# ----------------------------------------------------------------------
def _finite(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64).ravel()
    return array[np.isfinite(array)]


def _bucket_edges(reference: np.ndarray, current: np.ndarray, bins: int) -> np.ndarray:
    """Interior bucket edges from the reference distribution's quantiles.

    A constant reference has no quantile spread, so the pooled sample is
    used as a fallback — otherwise a zeroed artifact compared against a
    zeroed artifact's *successor* would collapse into one bucket and read
    as zero drift.
    """
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(reference, qs))
    if len(edges) < 2:
        pooled = np.concatenate([reference, current])
        edges = np.unique(np.quantile(pooled, qs))
    return edges


def _bucket_shares(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    counts = np.bincount(
        np.searchsorted(edges, values, side="right"), minlength=len(edges) + 1
    ).astype(np.float64)
    shares = counts / counts.sum()
    # Floor-and-renormalise so empty buckets cannot produce infinities.
    shares = np.maximum(shares, _EPS)
    return shares / shares.sum()


def distribution_shift(reference, current, bins: int = 10) -> dict:
    """PSI and KL(current‖reference) over reference-quantile buckets.

    Returns ``{"psi": None, "kl": None, ...}`` when either side has no
    finite samples — absent data is reported, never scored.
    """
    ref = _finite(reference)
    cur = _finite(current)
    if ref.size == 0 or cur.size == 0:
        return {"psi": None, "kl": None, "reference_samples": int(ref.size),
                "current_samples": int(cur.size)}
    edges = _bucket_edges(ref, cur, bins)
    p = _bucket_shares(ref, edges)
    q = _bucket_shares(cur, edges)
    log_ratio = np.log(q / p)
    return {
        "psi": float(np.sum((q - p) * log_ratio)),
        "kl": float(np.sum(q * log_ratio)),
        "reference_samples": int(ref.size),
        "current_samples": int(cur.size),
    }


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


def compare_graphs(old_graph, new_graph, bins: int = 10) -> dict:
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

    def _relation_mix(graph) -> dict[str, float]:
        if graph.num_edges == 0:
            return {name: 0.0 for name in RELATION_NAMES.values()}
        counts = np.bincount(graph.relation, minlength=len(RELATION_NAMES))
        total = counts.sum()
        return {
            RELATION_NAMES[i]: float(counts[i] / total) for i in RELATION_NAMES
        }

    old_mix = _relation_mix(old)
    new_mix = _relation_mix(new)
    mix_distance = 0.5 * sum(
        abs(old_mix[name] - new_mix[name]) for name in old_mix
    )

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
        "degree_shift": distribution_shift(old.degrees(), new.degrees(), bins),
        "relation_mix_old": old_mix,
        "relation_mix_new": new_mix,
        "relation_mix_distance": mix_distance,
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
    old_store,
    new_store,
    probe_entities: list[int],
    top_k: int = 20,
    bins: int = 10,
) -> dict:
    """Score-distribution drift + audience overlap between preference indexes."""
    num_entities = min(
        len(old_store.entity_embeddings), len(new_store.entity_embeddings)
    )
    probes = [e for e in probe_entities if 0 <= e < num_entities]

    old_scores, new_scores, overlaps = [], [], []
    for entity_id in probes:
        old_scores.append(_finite(old_store.score_entity(entity_id)))
        new_scores.append(_finite(new_store.score_entity(entity_id)))
        old_top = [u.user_id for u in old_store.top_users_for_entity(entity_id, top_k)]
        new_top = [u.user_id for u in new_store.top_users_for_entity(entity_id, top_k)]
        overlaps.append(topk_overlap(old_top, new_top))

    pooled_old = np.concatenate(old_scores) if old_scores else np.empty(0)
    pooled_new = np.concatenate(new_scores) if new_scores else np.empty(0)
    degenerate = pooled_new.size == 0 or float(np.std(pooled_new)) < 1e-12

    return {
        "probe_entities": probes,
        "top_k": top_k,
        "score_shift": distribution_shift(pooled_old, pooled_new, bins),
        "topk_overlap_mean": float(np.mean(overlaps)) if overlaps else None,
        "topk_overlap_min": float(np.min(overlaps)) if overlaps else None,
        "topk_overlap_per_probe": [float(o) for o in overlaps],
        "new_score_std": float(np.std(pooled_new)) if pooled_new.size else None,
        "degenerate_scores": bool(degenerate),
    }


# ----------------------------------------------------------------------
# Monitor: measure → classify → report
# ----------------------------------------------------------------------
class DriftMonitor:
    """Computes and classifies drift reports at artifact hot-swap time.

    Stateless between calls except for pre-bound metric handles; the caller
    (the serving runtime) supplies the outgoing and incoming artifacts.
    All work happens on the swap path — a cold path by definition — so
    clarity beats micro-optimisation here.
    """

    def __init__(
        self,
        config: DriftConfig | None = None,
        metrics=None,
        clock: Clock | None = None,
        logger=None,
    ) -> None:
        self.config = config or DriftConfig()
        self._clock = clock or Clock()
        self._metrics = metrics
        self._logger = logger

    # ------------------------------------------------------------------
    def graph_report(
        self, old_graph, new_graph, old_version: int | None, new_version: int
    ) -> DriftReport:
        measured = compare_graphs(old_graph, new_graph, bins=self.config.bins)
        severity, reasons = self._classify_graph(measured)
        return self._finalize("graph", old_version, new_version, measured, severity, reasons)

    def preference_report(
        self, old_store, new_store, old_version: int | None, new_version: int
    ) -> DriftReport:
        probes = default_probe_entities(
            len(new_store.entity_embeddings), self.config.probe_entities
        )
        measured = compare_preference_stores(
            old_store, new_store, probes,
            top_k=self.config.top_k, bins=self.config.bins,
        )
        severity, reasons = self._classify_preferences(measured)
        return self._finalize(
            "preferences", old_version, new_version, measured, severity, reasons
        )

    # ------------------------------------------------------------------
    def _classify_graph(self, m: dict) -> tuple[str, list[str]]:
        checks: list[tuple[bool, str, str]] = [
            (m["new_edges"] == 0, SEVERITY_CRITICAL, "empty_graph"),
            (
                m["edge_ratio"] is not None
                and m["edge_ratio"] < self.config.edge_ratio_critical,
                SEVERITY_CRITICAL,
                f"edge_collapse:ratio={m['edge_ratio']:.3f}" if m["edge_ratio"] is not None else "",
            ),
            (
                m["edge_churn"] >= self.config.churn_critical,
                SEVERITY_CRITICAL,
                f"edge_churn={m['edge_churn']:.2f}",
            ),
            (
                m["edge_churn"] >= self.config.churn_warning,
                SEVERITY_WARNING,
                f"edge_churn={m['edge_churn']:.2f}",
            ),
        ]
        psi = m["degree_shift"]["psi"]
        if psi is not None:
            checks.append(
                (psi >= self.config.psi_critical, SEVERITY_CRITICAL, f"degree_psi={psi:.2f}")
            )
            checks.append(
                (psi >= self.config.psi_warning, SEVERITY_WARNING, f"degree_psi={psi:.2f}")
            )
        return self._worst(checks)

    def _classify_preferences(self, m: dict) -> tuple[str, list[str]]:
        checks: list[tuple[bool, str, str]] = [
            (m["degenerate_scores"], SEVERITY_CRITICAL, "degenerate_scores"),
        ]
        psi = m["score_shift"]["psi"]
        if psi is not None:
            checks.append(
                (psi >= self.config.psi_critical, SEVERITY_CRITICAL, f"score_psi={psi:.2f}")
            )
            checks.append(
                (psi >= self.config.psi_warning, SEVERITY_WARNING, f"score_psi={psi:.2f}")
            )
        overlap = m["topk_overlap_mean"]
        if overlap is not None:
            checks.append(
                (
                    overlap <= self.config.overlap_critical,
                    SEVERITY_CRITICAL,
                    f"topk_overlap={overlap:.2f}",
                )
            )
            checks.append(
                (
                    overlap <= self.config.overlap_warning,
                    SEVERITY_WARNING,
                    f"topk_overlap={overlap:.2f}",
                )
            )
        return self._worst(checks)

    @staticmethod
    def _worst(checks: list[tuple[bool, str, str]]) -> tuple[str, list[str]]:
        severity = SEVERITY_OK
        reasons: list[str] = []
        for triggered, level, reason in checks:
            if not triggered:
                continue
            if _SEVERITY_RANK[level] > _SEVERITY_RANK[severity]:
                severity = level
            if reason and reason not in reasons:
                reasons.append(reason)
        return severity, reasons

    def _finalize(
        self,
        kind: str,
        old_version: int | None,
        new_version: int,
        measured: dict,
        severity: str,
        reasons: list[str],
    ) -> DriftReport:
        report = DriftReport(
            kind=kind,
            old_version=old_version,
            new_version=new_version,
            computed_at=self._clock.time(),
            severity=severity,
            reasons=reasons,
            metrics=measured,
        )
        if self._metrics is not None:
            self._metrics.counter(
                "drift_reports_total", help="Drift reports by kind and severity",
                kind=kind, severity=severity,
            ).inc()
            shift = measured.get("degree_shift") or measured.get("score_shift") or {}
            if shift.get("psi") is not None:
                self._metrics.gauge(
                    "drift_last_psi", help="PSI of the most recent drift report",
                    kind=kind,
                ).set(shift["psi"])
        if self._logger is not None:
            log = self._logger.warning if severity != SEVERITY_OK else self._logger.info
            log(
                "drift_report",
                kind=kind,
                old_version=old_version,
                new_version=new_version,
                severity=severity,
                reasons=reasons,
            )
        return report


__all__ = [
    "SEVERITY_OK",
    "SEVERITY_WARNING",
    "SEVERITY_CRITICAL",
    "DriftConfig",
    "DriftReport",
    "DriftMonitor",
    "distribution_shift",
    "topk_overlap",
    "compare_graphs",
    "compare_preference_stores",
    "default_probe_entities",
]
