"""Tests for the seeded Monte-Carlo campaign runner.

The load-bearing guarantee is scheduling-independence: a campaign's
per-trial metrics and aggregate statistics are a pure function of
``(master_seed, n_trials, trial_kwargs)`` — never of the worker count
or the order workers finish in.
"""

import numpy as np
import pytest

from repro.engine import (
    CampaignResult,
    ConfidenceStop,
    ShardSpec,
    TrialRecord,
    run_adaptive,
    run_campaign_shard,
    run_monte_carlo,
)
from repro.engine.campaign import _run_trials
from repro.errors import ValidationError
from repro.scenarios import get_scenario
from repro.scenarios.trial import scenario_trial

#: Small, fast multilateration spec shared by the campaign tests.
SMALL_SPEC = get_scenario("uniform-multilateration").with_overrides(
    **{
        "deployment.n_nodes": 16,
        "deployment.width_m": 40.0,
        "deployment.height_m": 40.0,
        "anchors.count": 6,
    }
)


def _seed_echo_trial(rng):
    """Minimal deterministic trial: echoes its stream's first draws."""
    return {"draw": float(rng.random()), "gauss": float(rng.normal())}


class TestRunMonteCarlo:
    def test_records_ordered_and_complete(self):
        result = run_monte_carlo(_seed_echo_trial, 8, master_seed=42)
        assert result.n_trials == 8
        assert [r.index for r in result.records] == list(range(8))
        assert result.metric_names == ("draw", "gauss")
        assert np.isfinite(result.metric("draw")).all()

    def test_same_master_seed_reproduces(self):
        a = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        b = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        assert np.array_equal(a.metric("draw"), b.metric("draw"))
        assert a.aggregate() == b.aggregate()

    def test_different_master_seeds_differ(self):
        a = run_monte_carlo(_seed_echo_trial, 6, master_seed=1)
        b = run_monte_carlo(_seed_echo_trial, 6, master_seed=2)
        assert not np.array_equal(a.metric("draw"), b.metric("draw"))

    def test_trials_are_independent_streams(self):
        result = run_monte_carlo(_seed_echo_trial, 16, master_seed=0)
        draws = result.metric("draw")
        assert np.unique(draws).size == draws.size

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(_seed_echo_trial, 0)
        with pytest.raises(ValidationError):
            run_monte_carlo(_seed_echo_trial, 2, n_workers=0)

    def test_non_mapping_return_rejected(self):
        def bad_trial(rng):
            return 1.0

        with pytest.raises(ValidationError):
            run_monte_carlo(bad_trial, 1)


class TestWorkerDeterminism:
    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        """n_workers=1 and n_workers=4 yield identical statistics."""
        serial = run_monte_carlo(
            scenario_trial,
            8,
            master_seed=2005,
            n_workers=1,
            trial_kwargs={"spec": SMALL_SPEC},
        )
        parallel = run_monte_carlo(
            scenario_trial,
            8,
            master_seed=2005,
            n_workers=4,
            trial_kwargs={"spec": SMALL_SPEC},
        )
        assert [r.index for r in parallel.records] == [r.index for r in serial.records]
        for name in serial.metric_names:
            assert np.array_equal(
                serial.metric(name), parallel.metric(name), equal_nan=True
            ), name
        assert serial.aggregate() == parallel.aggregate()


class TestTrialExecutor:
    """Edges of the one executor behind fixed, sharded and adaptive runs."""

    @staticmethod
    def _run(n_workers, on_boundary, n_trials=10, chunk_size=4):
        return _run_trials(
            _seed_echo_trial,
            n_trials,
            range(n_trials),
            master_seed=11,
            n_workers=n_workers,
            trial_kwargs=None,
            mp_context=None,
            on_boundary=on_boundary,
            chunk_size=chunk_size,
        )

    def test_boundary_callback_sees_every_chunk_and_ragged_tail(self):
        seen = []
        records = self._run(1, lambda committed: seen.append(len(committed)))
        assert seen == [4, 8, 10]
        assert [r.index for r in records] == list(range(10))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_true_return_stops_at_that_boundary(self, n_workers):
        records = self._run(n_workers, lambda committed: len(committed) >= 8)
        fixed = run_monte_carlo(_seed_echo_trial, 10, master_seed=11)
        assert tuple(records) == fixed.records[:8]

    def test_pool_chunking_keeps_index_order(self):
        # 24 trials over 2 workers dispatch in chunks of 3; commits must
        # still come back in index order, equal to the inline run.
        serial = run_monte_carlo(_seed_echo_trial, 24, master_seed=9)
        pooled = run_monte_carlo(_seed_echo_trial, 24, master_seed=9, n_workers=2)
        assert pooled.records == serial.records

    def test_every_entry_point_rejects_zero_workers(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(_seed_echo_trial, 4, n_workers=0)
        with pytest.raises(ValidationError):
            run_campaign_shard(
                _seed_echo_trial, 4, shard=ShardSpec(index=0, n_shards=2), n_workers=0
            )
        with pytest.raises(ValidationError):
            run_adaptive(
                _seed_echo_trial, 4, stopping=ConfidenceStop(metric="draw"), n_workers=0
            )


class TestAggregation:
    def test_aggregate_statistics(self):
        records = tuple(
            TrialRecord(index=i, metrics={"x": float(v)})
            for i, v in enumerate([1.0, 2.0, 3.0, 4.0])
        )
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["n"] == 4.0

    def test_nan_metrics_excluded_from_aggregates(self):
        records = (
            TrialRecord(index=0, metrics={"x": float("nan")}),
            TrialRecord(index=1, metrics={"x": 3.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["n"] == 1.0
        assert stats["mean"] == pytest.approx(3.0)

    def test_all_nan_metric(self):
        records = (TrialRecord(index=0, metrics={"x": float("nan")}),)
        result = CampaignResult(master_seed=0, records=records)
        stats = result.aggregate()["x"]
        assert stats["n"] == 0.0 and np.isnan(stats["mean"])

    def test_missing_metric_becomes_nan(self):
        records = (
            TrialRecord(index=0, metrics={"x": 1.0, "y": 2.0}),
            TrialRecord(index=1, metrics={"x": 5.0}),
        )
        result = CampaignResult(master_seed=0, records=records)
        y = result.metric("y")
        assert y[0] == 2.0 and np.isnan(y[1])

    def test_summary_renders(self):
        result = run_monte_carlo(_seed_echo_trial, 3, master_seed=5)
        text = result.summary()
        assert "3 trials" in text and "draw" in text


class TestScenarioTrialCampaigns:
    def test_all_anchor_trial_yields_nan_instead_of_crashing(self):
        # Every node an anchor is a degenerate draw: no non-anchors to
        # localize.  The trial must report nan metrics (excluded from
        # aggregates), not divide by zero and kill the campaign.
        spec = SMALL_SPEC.with_overrides(
            **{"deployment.n_nodes": 8, "anchors.count": 8}
        )
        metrics = scenario_trial(np.random.default_rng(8), spec=spec)
        assert np.isnan(metrics["fraction_localized"])
        result = run_monte_carlo(
            scenario_trial, 2, master_seed=3, trial_kwargs={"spec": spec}
        )
        assert result.aggregate()["fraction_localized"]["n"] == 0.0

    @pytest.mark.slow
    def test_campaign_over_lss_trials(self):
        spec = get_scenario("town-lss").with_overrides(
            **{
                "deployment.kind": "uniform",
                "deployment.n_nodes": 14,
                "deployment.width_m": 35.0,
                "deployment.height_m": 35.0,
                "deployment.min_separation_m": 5.0,
                "solver.restarts": 3,
                "solver.max_epochs": 400,
            }
        )
        result = run_monte_carlo(
            scenario_trial, 4, master_seed=2005, trial_kwargs={"spec": spec}
        )
        agg = result.aggregate()
        assert agg["mean_error_m"]["n"] == 4.0
        assert agg["mean_error_m"]["mean"] < 10.0
