"""Command-line interface."""

import pytest

from repro.cli import main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestWorldCommand:
    def test_exports_files(self, tmp_path, capsys):
        events_out = tmp_path / "events.jsonl"
        dict_out = tmp_path / "dict.tsv"
        code = main(
            [
                "world",
                "--entities", "30",
                "--users", "20",
                "--days", "3",
                "--events-out", str(events_out),
                "--dict-out", str(dict_out),
            ]
        )
        assert code == 0
        assert events_out.exists() and dict_out.exists()
        out = capsys.readouterr().out
        assert "events" in out and "entity dict" in out

        # The exported files round-trip through the loaders.
        from repro.datasets import load_entity_dict, load_events

        assert len(load_events(events_out)) > 0
        assert len(load_entity_dict(dict_out)) == 30


class TestGraphStats:
    def test_prints_summaries(self, capsys):
        code = main(["graph-stats", "--entities", "60", "--users", "40", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "candidate graph:" in out
        assert "ranked graph:" in out
        assert "ground truth:" in out


class TestDemo:
    def test_end_to_end(self, capsys):
        code = main(["demo", "--entities", "80", "--users", "50", "--k", "5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "offline refresh" in out
        assert "exported 5 users" in out


class TestMetricsCommand:
    """``serve`` is the one command that prints the stage breakdown and the
    ``/metrics`` exposition (there is no separate ``metrics`` command)."""

    def test_prints_exposition_and_stage_breakdown(self, capsys):
        code = main(
            ["serve", "--entities", "60", "--users", "40",
             "--seed", "3", "--requests", "6", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "weekly refresh stage breakdown:" in out
        assert "alpc_ranking" in out
        assert "=== /metrics ===" in out
        # Non-zero request counters, latency histograms, cache counters,
        # version gauges and stage timings all appear in the exposition.
        assert 'requests_total{code="ok",endpoint="expand"} 6' in out
        assert "request_seconds_bucket" in out
        assert "serving_expansion_cache_misses_total" in out
        assert 'serving_active_version{kind="graph"} 1' in out
        assert 'pipeline_stage_seconds_count{stage="semantic_pretrain"} 1' in out


class TestServeCommand:
    def test_port_flag_binds_endpoint_and_prints_routes(self, capsys):
        code = main(
            ["serve", "--entities", "60", "--users", "40",
             "--seed", "3", "--requests", "4", "--k", "5", "--port", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "listener: http://127.0.0.1:" in out
        for route in (
            "/metrics", "/health", "/drift", "/journeys", "/profile", "/frontend",
        ):
            assert f"{route}\n" in out
        assert "/traces" not in out and "/metrics-openmetrics" not in out
        assert "/expand\n" in out  # the same listener takes the POST queries
        # Drift verdicts from the refresh swaps are summarised too.
        assert "runtime health:" in out
        assert "=== /metrics ===" in out


class TestRefreshCommand:
    def test_kill_resume_matches_clean_digest(self, tmp_path, capsys):
        base = ["refresh", "--entities", "60", "--users", "40", "--seed", "3"]

        # Killed right after the candidates stage checkpoints: exit 3.
        code = main(
            base + ["--artifact-root", str(tmp_path / "a"),
                    "--kill-after", "candidates"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "refresh interrupted" in captured.err
        assert "cooccurrence, candidates" in captured.err
        assert "--resume" in captured.err

        # A second process resumes the surviving checkpoints: exit 0.
        code = main(base + ["--artifact-root", str(tmp_path / "a"), "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed stages: cooccurrence, candidates" in out
        resumed_digest = out.split("artifact digest: ")[1].split()[0]

        # An uninterrupted run in a fresh root lands on the same bytes.
        code = main(base + ["--artifact-root", str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed stages" not in out
        clean_digest = out.split("artifact digest: ")[1].split()[0]
        assert resumed_digest == clean_digest


class TestRollbackCommand:
    def test_rolls_back_to_previous_generation(self, capsys):
        code = main(
            ["rollback", "--entities", "60", "--users", "40",
             "--seed", "3", "--refreshes", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rolled back graph: v2 -> v1" in out

    def test_nothing_to_roll_back_exits_5(self, capsys):
        code = main(
            ["rollback", "--entities", "60", "--users", "40",
             "--seed", "3", "--refreshes", "1"]
        )
        assert code == 5
        assert "nothing to roll back" in capsys.readouterr().err

    def test_bad_refreshes_is_usage_error(self, capsys):
        assert main(["rollback", "--refreshes", "0"]) == 2


class TestServeHealth:
    def test_health_line_names_the_served_generations(self, capsys):
        code = main(
            ["serve", "--entities", "60", "--users", "40",
             "--seed", "3", "--requests", "2", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime health: swaps 2, graph v1, preferences v1" in out
        assert "status:" not in out
