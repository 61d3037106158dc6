"""Tests of the campaign benchmark itself, on tiny trial budgets."""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.tracing import LayerTracer, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD_WORKLOAD = workloads.build_workload


def tiny(name: str, trials: int = 2) -> workloads.Workload:
    """The named workload with every campaign cut to a tiny budget
    (adaptive ones to their minimum trial count)."""
    workload = BUILD_WORKLOAD(name)

    def cap(template):
        n = template.stopping.min_trials if template.stopping else min(trials, template.n_trials)
        return dataclasses.replace(template, n_trials=n)

    return dataclasses.replace(workload, round=tuple(cap(t) for t in workload.round))


def run_main(monkeypatch, capsys, tmp_path, name: str, trace: int) -> dict:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(workloads, "build_workload", tiny)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    return result


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_run_emits_every_named_metric_with_its_unit(monkeypatch, capsys, tmp_path, name):
    assert name in [w["name"] for w in BENCHMARK["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_main(monkeypatch, capsys, tmp_path, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_wrapped_calls_return_their_callees_value():
    sentinel = object()
    tracer = LayerTracer()
    assert tracer.wrap(lambda *a, **k: sentinel, "x")(1, key=2) is sentinel

    import repro.scenarios.trial as trial
    from repro.scenarios import get_scenario

    spec = get_scenario("town-lss")
    original = trial.draw_deployment
    expected = original(spec.deployment, np.random.default_rng(5))
    with tracer.installed("c0"):
        assert trial.draw_deployment is not original
        got = trial.draw_deployment(spec.deployment, np.random.default_rng(5))
        edges = trial.draw_ranges(spec.ranging, got, np.random.default_rng(6))
    assert trial.draw_deployment is original
    np.testing.assert_array_equal(got, expected)
    assert tracer.totals["ranging.edges"] == len(edges) > 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_traced_and_untraced_trial_records_are_identical(monkeypatch, tmp_path, name):
    from repro import telemetry
    from repro.store import records_equal

    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = tiny(name, trials=1)
    first_round = list(itertools.islice(workload.campaigns(11), len(workload.round)))
    tracer, recorder = LayerTracer(), telemetry.TraceRecorder()
    # The first and last templates: fixed-count and, on multilat-sweep, adaptive.
    for campaign in [first_round[0]] + first_round[1:][-1:]:
        plain = run.run_campaign(campaign)
        traced = run.run_campaign(campaign, tracer, recorder)
        assert plain.problem is None and traced.problem is None
        assert records_equal(plain.cold, traced.cold)
    assert recorder.spans and not telemetry.enabled()


def test_end_to_end_figures_hold_the_round_mix_fixed():
    from repro.engine import CampaignResult, TrialRecord
    from repro.scenarios import get_scenario

    def outcome(errors, seconds):
        records = tuple(
            TrialRecord(index=i, metrics={"median_error_m": e, "fraction_localized": 1.0})
            for i, e in enumerate(errors)
        )
        return run.Outcome(cold=CampaignResult(master_seed=0, records=records), cold_s=seconds)

    slow = workloads.Campaign(0, workloads.CampaignTemplate(get_scenario("town-lss"), 2), 1)
    fast = workloads.Campaign(1, workloads.CampaignTemplate(get_scenario("uniform-dv-hop"), 2), 2)
    tally = run.Tally()
    tally.add(slow, outcome([10.0, 40.0], 2.0))
    tally.add(fast, outcome([1.0, float("nan")], 0.2))
    figures = tally.end_to_end()
    # 1 s and 0.1 s per trial, each template counting once: 2 trials per 1.1 s.
    assert figures["trials_per_s"] == pytest.approx(2 / 1.1)
    assert figures["median_error_m"] == pytest.approx((25.0 + 1.0) / 2)
    assert figures["ok_frac"] == pytest.approx(0.75)
    tally.add(fast, outcome([1.0, 1.0], 0.2))
    tally.add(fast, outcome([1.0, 1.0], 0.2))
    assert tally.end_to_end()["trials_per_s"] == pytest.approx(figures["trials_per_s"])


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "leaf", "path": "a/b/leaf", "wall_s": 1.0, "seq": 0},
        {"name": "b", "path": "a/b", "wall_s": 3.0, "seq": 1},
        {"name": "b", "path": "a/b", "wall_s": 2.0, "seq": 2},
        {"name": "a", "path": "a", "wall_s": 10.0, "seq": 3},
    ]
    assert self_times(spans) == {"leaf": 1.0, "b": 4.0, "a": 5.0}


COUNTERS_SCRIPT = """
import json, sys
from pathlib import Path
from perfbench import run
from perfbench.tests.test_perfbench import tiny
from perfbench.tracing import PROGRAM_COUNTERS
run.WORK = Path(sys.argv[1])
out = {}
for name in sys.argv[2:]:
    _, _, metrics = run.traced_run(tiny(name, trials=1), 5, 0, run.WORK / "trace.jsonl")
    out[name] = {k: metrics[k] for k in PROGRAM_COUNTERS + ("ranging.edges",)}
print(json.dumps(out, sort_keys=True))
"""


def test_counted_work_repeats_exactly_in_fresh_processes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", COUNTERS_SCRIPT, str(tmp_path), *workloads.WORKLOAD_NAMES],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    counts = json.loads(outputs[0])
    assert counts["lss-centralized"]["engine.batch.lss_iterations"] > 0
    assert counts["lss-distributed"]["engine.localmaps.problems"] > 0
    assert counts["multilat-sweep"]["engine.batch.gd_iterations"] > 0
    assert counts["acoustic-ranging"]["ranging.edges"] > 0


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:],
         "--workload", "multilat-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
