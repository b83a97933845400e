"""Smoke test of the socket-to-kernel benchmark (outside tier-1 ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py

Runs ``run.py --smoke`` (every workload, untraced and traced, short
segments) and asserts that every metric named in ``BENCHMARK.json`` is
present and finite and that nothing failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_reports_every_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {w["name"] for w in SPEC["workloads"]}
    for workload, sections in report.items():
        for section in ("end_to_end", "per_layer"):
            result = sections[section]
            assert result["correct"], (workload, section)
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name)
        assert sections["per_layer"]["metrics"]["failed_share"]["value"] == 0
