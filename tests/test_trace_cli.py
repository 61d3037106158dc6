"""Tests for the tracing CLI surface: ``run --trace``, ``$REPRO_TRACE``,
and the ``trace summarize`` / ``trace compare`` subcommands."""

import json

import pytest

from repro.errors import ValidationError
from repro.__main__ import main
from repro.telemetry import TRACE_SCHEMA_VERSION, read_trace, read_trace_lenient


def _run_traced(tmp_path, trace_name="t.jsonl", extra=()):
    trace = tmp_path / trace_name
    code = main(
        [
            "run",
            "uniform-multilateration",
            "--seed",
            "1",
            "--trials",
            "2",
            "--store",
            str(tmp_path / "store"),
            "--trace",
            str(trace),
            *extra,
        ]
    )
    assert code == 0
    return trace


class TestRunTrace:
    def test_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        trace = _run_traced(tmp_path)
        out = capsys.readouterr().out
        assert f"-> {trace}" in out
        manifest, records = read_trace(trace)  # validates shape + version
        assert manifest["schema"] == TRACE_SCHEMA_VERSION
        assert manifest["scenario_id"] == "uniform-multilateration"
        assert manifest["master_seed"] == 1
        assert manifest["argv"] == ["run", "uniform-multilateration"]
        assert "code_version" in manifest
        paths = [r["path"] for r in records if r["type"] == "span"]
        assert "scenario" in paths
        assert "scenario/campaign" in paths
        assert paths.count("scenario/campaign/solve") == 2
        counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert counters["engine.campaign.trials"] == 2
        assert counters["store.filesystem.miss"] == 1
        assert counters["store.filesystem.put"] == 1

    def test_env_var_enables_tracing(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["run", "uniform-multilateration", "--trials", "2"]) == 0
        assert f"-> {trace}" in capsys.readouterr().out
        read_trace(trace)

    def test_flag_takes_precedence_over_env(self, tmp_path, capsys, monkeypatch):
        env_trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(env_trace))
        flag_trace = _run_traced(tmp_path, "flag.jsonl")
        capsys.readouterr()
        assert flag_trace.exists()
        assert not env_trace.exists()

    def test_untraced_run_writes_nothing(self, tmp_path, capsys):
        assert main(["run", "uniform-multilateration", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace:" not in out

    def test_experiment_accepts_trace(self, tmp_path, capsys):
        trace = tmp_path / "exp.jsonl"
        assert main(["run", "fig11", "--seed", "2005", "--trace", str(trace)]) == 0
        capsys.readouterr()
        manifest, records = read_trace(trace)
        assert manifest["kind"] == "experiment"
        assert manifest["experiment_id"] == "fig11"
        assert any(
            r["type"] == "span" and r["path"] == "experiment" for r in records
        )

    def test_failed_run_still_writes_trace(self, tmp_path, capsys, monkeypatch):
        import repro.__main__ as cli
        from repro import telemetry

        def failing_run(args, run_parser):
            telemetry.count("test.before_failure", 1)
            with telemetry.span("scenario"):
                raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "_cmd_run_inner", failing_run)
        trace = tmp_path / "failed.jsonl"
        with pytest.raises(RuntimeError, match="solver blew up"):
            main(["run", "uniform-multilateration", "--trace", str(trace)])
        assert f"-> {trace}" in capsys.readouterr().out
        manifest, records, warnings = read_trace_lenient(trace)
        assert warnings == []
        assert manifest["argv"] == ["run", "uniform-multilateration"]
        assert any(r["type"] == "span" and r["path"] == "scenario" for r in records)
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters["test.before_failure"] == 1


class TestTraceSummarize:
    def test_summarize_renders_tree_and_counters(self, tmp_path, capsys):
        trace = _run_traced(tmp_path)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        assert f"schema: v{TRACE_SCHEMA_VERSION}" in out
        assert "scenario" in out
        assert "campaign" in out
        assert "solve" in out
        assert "engine.campaign.trials" in out
        assert "store.filesystem.miss" in out

    def test_summarize_shows_scheduler_decisions(self, tmp_path, capsys):
        trace = _run_traced(
            tmp_path,
            "adaptive.jsonl",
            extra=["--adaptive", "--tolerance", "5.0", "--trials", "8"],
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "scheduler decisions:" in out
        assert "boundary 1:" in out
        assert "half_width=" in out
        assert "stop:" in out

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "counter", "name": "c", "value": 1}\n')
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "manifest" in capsys.readouterr().err


class TestTraceLenientReading:
    """A crashed writer leaves the final JSONL line truncated; the
    inspection commands must render everything readable instead of
    rejecting the file."""

    def _truncate_mid_record(self, trace):
        """Chop the trace inside its final record (no trailing newline)."""
        data = trace.read_bytes().rstrip(b"\n")
        last_line_start = data.rfind(b"\n") + 1
        assert len(data) - last_line_start > 10
        trace.write_bytes(data[: last_line_start + 10])
        return trace

    def test_summarize_degrades_on_truncated_tail(self, tmp_path, capsys):
        trace = self._truncate_mid_record(_run_traced(tmp_path))
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "truncated mid-record" in captured.err
        assert "crashed writer" in captured.err
        assert "scenario" in captured.out  # readable records still render

    def test_strict_reader_still_rejects_truncation(self, tmp_path):
        trace = self._truncate_mid_record(_run_traced(tmp_path))
        with pytest.raises(ValidationError, match="malformed JSON"):
            read_trace(trace)
        manifest, records, warnings = read_trace_lenient(trace)
        assert manifest["schema"] == TRACE_SCHEMA_VERSION
        assert records  # everything before the torn line survives
        (warning,) = warnings
        assert "dropped it" in warning

    def test_mid_file_corruption_still_fails(self, tmp_path, capsys):
        trace = _run_traced(tmp_path)
        lines = trace.read_text().splitlines()
        lines[2] = lines[2][:10]  # tear a record that is NOT the tail
        trace.write_text("\n".join(lines) + "\n")
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_empty_trace_exits_2_without_traceback(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "trace is empty" in capsys.readouterr().err

    def test_compare_tolerates_truncated_side(self, tmp_path, capsys):
        a = _run_traced(tmp_path, "a.jsonl")
        b = self._truncate_mid_record(_run_traced(tmp_path, "b.jsonl"))
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(b)]) == 0
        captured = capsys.readouterr()
        assert "truncated mid-record" in captured.err
        assert "scenario" in captured.out


class TestTraceForwardCompat:
    """Schema evolution contract: extra fields are minor additions old
    readers pass through; an unknown schema version is a hard stop."""

    def test_unknown_extra_field_accepted(self, tmp_path):
        trace = _run_traced(tmp_path)
        lines = trace.read_text().splitlines()
        record = json.loads(lines[1])
        record["future_annotation"] = {"from": "v1.1"}
        lines[1] = json.dumps(record)
        trace.write_text("\n".join(lines) + "\n")
        _, records = read_trace(trace)
        assert any(r.get("future_annotation") == {"from": "v1.1"} for r in records)
        assert main(["trace", "summarize", str(trace)]) == 0

    def test_bumped_schema_version_cleanly_rejected(self, tmp_path, capsys):
        trace = _run_traced(tmp_path)
        lines = trace.read_text().splitlines()
        manifest = json.loads(lines[0])
        manifest["schema"] = TRACE_SCHEMA_VERSION + 1
        lines[0] = json.dumps(manifest)
        trace.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="this build reads version"):
            read_trace(trace)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_compare_disjoint_span_paths(self, tmp_path, capsys):
        # A scenario trace and an experiment trace share no span paths;
        # compare must render one-sided rows, not crash.
        scenario = _run_traced(tmp_path, "scenario.jsonl")
        experiment = tmp_path / "experiment.jsonl"
        assert (
            main(["run", "fig11", "--seed", "2005", "--trace", str(experiment)]) == 0
        )
        capsys.readouterr()
        assert main(["trace", "compare", str(scenario), str(experiment)]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "experiment" in out
        assert "-" in out  # one-sided rows render a dash placeholder


class TestTraceCompare:
    def test_compare_two_runs(self, tmp_path, capsys):
        a = _run_traced(tmp_path, "a.jsonl")
        b = _run_traced(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out
        assert "engine.campaign.trials" in out
        # The warm run hit the cache, so the store counters diverge.
        assert "store.filesystem.hit" in out
        assert "store.filesystem.miss" in out

    def test_compare_invalid_exits_2(self, tmp_path, capsys):
        a = _run_traced(tmp_path, "a.jsonl")
        capsys.readouterr()
        assert main(["trace", "compare", str(a), str(tmp_path / "nope.jsonl")]) == 2


class TestRunCompletionLine:
    def test_scheduler_savings_in_completion_line(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "uniform-multilateration",
                "--trials",
                "8",
                "--adaptive",
                "--tolerance",
                "5.0",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "early stop saved" in out
        assert "of 8 budgeted trials" in out
        assert "store:" in out and "misses=1" in out
