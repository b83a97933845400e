"""Shared context for the reproduction benchmarks.

Every benchmark regenerates one paper table/figure. Expensive artefacts
(world, behaviour logs, embeddings, candidate graph, weekly study) are built
once per pytest session and cached here. Each benchmark writes its
reproduced table to ``benchmarks/results/<name>.json`` and a human-readable
``.txt`` next to it, so results survive pytest's output capturing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets import (
    BehaviorConfig,
    BehaviorLog,
    BehaviorLogGenerator,
    World,
    WorldConfig,
    make_link_prediction_split,
)
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.eval import AnnotatorPanel
from repro.online import EGLSystem
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig, TRMPipeline

RESULTS_DIR = Path(__file__).parent / "results"

_CACHE: dict[str, object] = {}


def bench_trmp_config() -> TRMPConfig:
    """The configuration used by all offline benchmarks."""
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=12, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=6, seed=3)),
        alpc=ALPCConfig(epochs=30, seed=1),
        ensemble=EnsembleConfig(epochs=25, seed=0),
        ensemble_window=4,
        seed=0,
    )


def bench_system(world: World, config: TRMPConfig | None = None, **kwargs) -> EGLSystem:
    """An :class:`EGLSystem` over a fresh temporary artifact registry, so
    every benchmark serves the CSR and memmap generations the e2e server
    maps. ``kwargs`` go to the constructor. The directory is removed when
    the system is collected or the interpreter exits."""
    root = tempfile.mkdtemp(prefix="bench-registry-")
    system = EGLSystem(world, config, artifact_root=root, **kwargs)
    weakref.finalize(system, shutil.rmtree, root, ignore_errors=True)
    return system


@dataclass
class BenchContext:
    """One world + one month of behaviour + Stage I artefacts."""

    world: World
    generator: BehaviorLogGenerator
    events: BehaviorLog
    pipeline: TRMPipeline
    candidate: object
    split: object
    panel: AnnotatorPanel

    @property
    def features(self) -> np.ndarray:
        return self.candidate.node_features

    @property
    def e_semantic(self) -> np.ndarray:
        return self.candidate.e_semantic


def get_context() -> BenchContext:
    """Session-cached benchmark context (≈15 s to build)."""
    if "context" not in _CACHE:
        world = World(WorldConfig(num_entities=300, num_users=250, seed=7))
        generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=30, seed=11))
        events = generator.generate()
        pipeline = TRMPipeline(world, bench_trmp_config())
        e_co = pipeline.build_cooccurrence(events)
        candidate = pipeline.build_candidate(e_co)
        split = make_link_prediction_split(candidate.graph, rng=1)
        _CACHE["context"] = BenchContext(
            world=world,
            generator=generator,
            events=events,
            pipeline=pipeline,
            candidate=candidate,
            split=split,
            panel=AnnotatorPanel(world),
        )
    return _CACHE["context"]


@dataclass
class WeeklyStudy:
    """Several drifted weeks processed by one pipeline (Table I, Fig. 5b)."""

    context: BenchContext
    runs: list = field(default_factory=list)
    alpc_weekly_acc: list[float] = field(default_factory=list)
    ensemble_weekly_acc: list[float] = field(default_factory=list)
    candidate_weekly_acc: list[float] = field(default_factory=list)


def get_weekly_study(num_weeks: int = 7) -> WeeklyStudy:
    """Run the weekly offline refresh over drifted data (cached)."""
    key = f"weekly_study_{num_weeks}"
    if key not in _CACHE:
        context = get_context()
        study = WeeklyStudy(context=context)
        pipeline = context.pipeline
        panel = context.panel
        for week in range(num_weeks):
            events = context.generator.generate_week(week)
            run = pipeline.run_week(events)
            study.runs.append(run)

            lo, hi = run.candidate.graph.canonical_pairs()
            study.candidate_weekly_acc.append(
                panel.evaluate_relations(
                    np.stack([lo, hi], 1), sample_size=400, rng=week
                ).acc
            )
            lo, hi = run.ranked_graph.canonical_pairs()
            study.alpc_weekly_acc.append(
                panel.evaluate_relations(
                    np.stack([lo, hi], 1), sample_size=400, rng=week
                ).acc
            )
            if len(pipeline.weekly_runs) >= 2:
                ensemble = pipeline.train_ensemble()
                acc = _ensemble_relation_acc(run, ensemble, panel, week)
                study.ensemble_weekly_acc.append(acc)
        _CACHE[key] = study
    return _CACHE[key]


def _ensemble_relation_acc(run, ensemble, panel, week: int) -> float:
    """ACC of candidate relations the ensemble accepts (score ≥ 0.7)."""
    lo, hi = run.candidate.graph.canonical_pairs()
    pairs = np.stack([lo, hi], axis=1)
    scores = ensemble.predict_pairs(pairs)
    accepted = pairs[scores >= 0.7]
    if len(accepted) == 0:
        return 0.0
    return panel.evaluate_relations(accepted, sample_size=400, rng=week).acc


def _commit_ish() -> str:
    """Short commit hash of the checkout, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def record_history(
    bench: str,
    metrics: dict,
    directions: dict | None = None,
    config: dict | None = None,
) -> None:
    """Append one perf-history row per metric to ``results/history.jsonl``.

    The comparator (``repro.obs.perf_history``) reads this file and flags
    the newest value of each ``(bench, metric)`` series when it regresses
    beyond tolerance against the trailing median. ``directions`` maps
    metric names to ``"higher"``/``"lower"`` (is-better); unlisted metrics
    default to higher-is-better.
    """
    import time

    from repro.obs.perf_history import append_history

    RESULTS_DIR.mkdir(exist_ok=True)
    append_history(
        RESULTS_DIR / "history.jsonl",
        bench,
        metrics,
        directions=directions,
        commit=_commit_ish(),
        config=config,
        timestamp=time.time(),
    )


def save_result(name: str, payload: dict, text: str) -> None:
    """Persist a reproduced table as JSON + pretty text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2, default=float))
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)


def format_table(title: str, header: list[str], rows: list[list]) -> str:
    """Fixed-width table formatter for the saved .txt results."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [title, ""]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
