"""Weekly-refresh time as a recorded series (first half-step of ROADMAP item 5a).

Runs the end-to-end benchmark's public command on ``expand_hot`` and
appends what the operator pays for bring-up to ``results/history.jsonl``
under the bench name ``e2e_refresh``: the seconds of the week-0 TRMP stages
that train, and of the whole week-0 refresh (``refresh_weekly_s``, the sum
of all its ``refresh.*_s``), from the traced pass, and ``setup_s`` from
an untraced pass (a traced pass does not print it: end-to-end numbers
never come from a traced run). Nothing under ``benchmarks/e2e/`` is
imported or changed.

The gate is absolute -- seconds on the fixed dataset, not a ratio against
an earlier run -- with ceilings about twice what this commit measures
(``setup_s`` 6.6-7.4 s, ``refresh_weekly_s`` 4.1-5.1 s), so a slower CI host
passes and a refresh that doubles does not. The quality of the graph each
refresh produced (ACC / CorS / AUC) is the other half of item 5a.

Since ISSUE 22 the week-0 skip-gram fit runs in a stage worker beside the
semantic pretrain, so ``refresh.cooccurrence_embedding_s`` is the parent's
*wait* for that worker after its own pretrain (tens of milliseconds), not
the fit's busy time: the series steps down by design, and each row's
``config`` says so. Since ISSUE 24 the pretrain is short enough that the
two sides are about balanced, so that wait reads 0.03-0.4 s.

The untraced pass also gives ``server_rss_mb``, the server's peak resident
set over bring-up (week 0's ALPC sets it, ~111 MB), so bring-up memory is a
series ``python -m repro.obs.perf_history`` watches too. It has no ceiling
here: the history comparator's band is the gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from bench_common import record_history

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"
SEED, SECONDS = 7, 9
TRAINED_STAGES = (
    "refresh.cooccurrence_embedding_s",
    "refresh.semantic_pretrain_s",
    "refresh.alpc_ranking_s",
)
CEILING_S = {"setup_s": 13.0, "refresh_weekly_s": 8.0}


def run_pass(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "expand_hot", "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_e2e_refresh_history():
    traced = run_pass(trace=1)
    stages = {k: v for k, v in traced.items() if k.startswith("refresh.")}
    # The stages that train; the rest are tens of milliseconds, which the
    # history comparator's relative band would only flag as noise.
    metrics = {name: stages[name] for name in TRAINED_STAGES}
    metrics["refresh_weekly_s"] = sum(stages.values())
    untraced = run_pass(trace=0)
    metrics["setup_s"] = untraced["setup_s"]
    metrics["server_rss_mb"] = untraced["server_rss_mb"]
    record_history(
        "e2e_refresh",
        metrics,
        directions=dict.fromkeys(metrics, "lower"),
        config={
            "workload": "expand_hot", "seed": SEED, "seconds": SECONDS,
            "cooccurrence_embedding_s": "wait for the week-0 stage worker, not its busy time",
        },
    )
    for name, ceiling in CEILING_S.items():
        assert metrics[name] <= ceiling, (name, metrics[name], ceiling)
