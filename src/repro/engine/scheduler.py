"""Incremental campaign scheduler with confidence-interval early stopping.

:func:`run_adaptive` is the adaptive sibling of
:func:`repro.engine.campaign.run_monte_carlo`: instead of committing to a
fixed trial count, it streams trial chunks through the worker pool and
stops as soon as a statistical stopping criterion on the target metric
is satisfied — typically long before the worst-case budget on
well-behaved scenarios, while hard scenarios run to the cap.

Early-stopping criterion
------------------------
:class:`ConfidenceStop` stops the campaign when the normal-approximation
confidence interval of the *mean* of one metric is tight enough::

    half_width = z_(1+c)/2 * std(finite values) / sqrt(n_finite)

converged when ``half_width <= tolerance`` (absolute), or
``half_width <= tolerance * |mean|`` with ``relative=True``.  Non-finite
trial values (degenerate draws) are excluded from the interval but still
consume budget; at least ``min_trials`` finite values are required
before the rule may fire.

Determinism contract
--------------------
The scheduler preserves PR 1's seed discipline exactly:

* Trial *i* always receives child *i* of ``SeedSequence(master_seed)``
  — the same stream it would receive from ``run_monte_carlo``, because
  ``SeedSequence.spawn`` keys children by index alone.
* The stopping rule is evaluated only at fixed chunk boundaries, on the
  in-order record prefix, so the number of committed trials is a pure
  function of ``(master_seed, trial_kwargs, stopping, chunk_size)`` —
  never of worker count or scheduling luck.  Workers may speculatively
  execute trials beyond the stopping point (that work is discarded);
  the *committed* records of an early-stopped campaign are therefore a
  bit-identical prefix of the same-seed fixed-count campaign
  (``tests/test_scheduler.py`` pins this).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from .. import telemetry
from ..errors import ValidationError
from .campaign import (
    CampaignResult,
    TrialRecord,
    _record_campaign_metrics,
    _run_trials,
)

__all__ = [
    "ConfidenceStop",
    "ScheduledCampaignResult",
    "resolve_chunk_size",
    "run_adaptive",
]


@lru_cache(maxsize=None)
def _normal_quantile(confidence: float) -> float:
    """Two-sided normal quantile for *confidence*, computed once.

    The stopping rule evaluates at every chunk boundary; without the
    cache each evaluation re-imported ``scipy.stats`` and re-ran
    ``norm.ppf`` for the same handful of confidence levels.
    """
    from scipy.stats import norm

    return float(norm.ppf(0.5 * (1.0 + confidence)))


def resolve_chunk_size(stopping: "ConfidenceStop", chunk_size: Optional[int]) -> int:
    """Effective evaluation-boundary spacing for a scheduler run.

    Exposed so callers that key caches on the run configuration (the
    scenario runner) can compute the default without running anything.
    """
    if chunk_size is None:
        return max(stopping.min_trials // 2, 4)
    if chunk_size < 1:
        raise ValidationError("chunk_size must be >= 1")
    return int(chunk_size)


@dataclass(frozen=True)
class ConfidenceStop:
    """Stop when the CI half-width of a metric's mean is below tolerance.

    Attributes
    ----------
    metric : str
        Which trial metric the interval is computed over.
    tolerance : float
        Target half-width (meters, fractions — whatever the metric's
        unit is); with ``relative=True``, a fraction of ``|mean|``.
    confidence : float
        Two-sided confidence level of the interval (default 95%).
    relative : bool
        Interpret ``tolerance`` relative to the running ``|mean|``.
    min_trials : int
        Minimum finite samples before the rule may fire (guards against
        a lucky tight-looking pair of early trials).
    """

    metric: str = "mean_error_m"
    tolerance: float = 0.1
    confidence: float = 0.95
    relative: bool = False
    min_trials: int = 8

    def __post_init__(self):
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError("confidence must be in (0, 1)")
        if self.tolerance <= 0.0:
            raise ValidationError("tolerance must be positive")
        if self.min_trials < 2:
            raise ValidationError("min_trials must be >= 2")

    def z_value(self) -> float:
        """Two-sided normal quantile for the confidence level (cached)."""
        return _normal_quantile(self.confidence)

    def half_width(self, values: np.ndarray) -> float:
        """CI half-width of the mean over the finite entries of *values*
        (inf when fewer than two finite samples exist)."""
        finite = values[np.isfinite(values)]
        if finite.size < 2:
            return float("inf")
        # ddof=1: the interval uses the sample std of an unknown mean.
        return self.z_value() * float(finite.std(ddof=1)) / math.sqrt(finite.size)

    def satisfied(self, values: np.ndarray) -> bool:
        """True when the interval over *values* is within tolerance."""
        finite = values[np.isfinite(values)]
        if finite.size < self.min_trials:
            return False
        hw = self.half_width(values)
        limit = self.tolerance
        if self.relative:
            mean = abs(float(finite.mean()))
            if mean == 0.0:
                # A zero mean with any spread never satisfies a relative
                # tolerance; with zero spread the half-width is 0 <= 0.
                limit = 0.0
            else:
                limit = self.tolerance * mean
        return hw <= limit

    def describe(self) -> dict:
        """Canonical description (participates in store keys)."""
        return {
            "rule": "confidence",
            "metric": self.metric,
            "tolerance": self.tolerance,
            "confidence": self.confidence,
            "relative": self.relative,
            "min_trials": self.min_trials,
        }


@dataclass(frozen=True)
class ScheduledCampaignResult(CampaignResult):
    """A campaign produced by the adaptive scheduler.

    Inherits all of :class:`CampaignResult` (records, aggregation) and
    adds the scheduling outcome: whether the stopping rule fired, the
    trial budget, and the half-width observed at each chunk boundary.
    """

    max_trials: int
    chunk_size: int
    converged: bool
    stop_reason: str
    half_width_trace: Tuple[float, ...]

    @property
    def trials_saved(self) -> int:
        """How many budgeted trials the early stop avoided."""
        return self.max_trials - self.n_trials


def run_adaptive(
    trial_fn: Callable[..., Mapping[str, float]],
    max_trials: int,
    *,
    stopping: ConfidenceStop,
    master_seed: int = 0,
    n_workers: int = 1,
    chunk_size: Optional[int] = None,
    trial_kwargs: Optional[Mapping[str, object]] = None,
    mp_context: Optional[str] = None,
) -> ScheduledCampaignResult:
    """Run up to *max_trials* seeded trials, stopping early on convergence.

    Parameters match :func:`repro.engine.campaign.run_monte_carlo` plus:

    stopping : ConfidenceStop
        The early-stopping criterion, evaluated at chunk boundaries.
    chunk_size : int, optional
        Trials dispatched between criterion evaluations; defaults to
        :func:`resolve_chunk_size` (a function of the stopping rule
        alone — deliberately *not* of ``n_workers``, so the committed
        prefix is identical for any worker count).  The chunk size is
        part of the determinism contract: a different value may legally
        commit a different prefix length.
    """
    if max_trials < 1:
        raise ValidationError("max_trials must be >= 1")
    if not isinstance(stopping, ConfidenceStop):
        raise ValidationError("stopping must be a ConfidenceStop")
    chunk_size = resolve_chunk_size(stopping, chunk_size)

    half_widths: List[float] = []
    satisfied: List[bool] = []
    rec = telemetry.current()

    def check_boundary(records: List[TrialRecord]) -> bool:
        values = np.asarray(
            [r.metrics.get(stopping.metric, float("nan")) for r in records],
            dtype=float,
        )
        half_widths.append(stopping.half_width(values))
        satisfied.append(bool(stopping.satisfied(values)))
        rec.event(
            "scheduler.boundary",
            chunk=len(half_widths),
            committed=len(records),
            half_width=half_widths[-1],
            satisfied=satisfied[-1],
        )
        return satisfied[-1]

    wall_start = time.perf_counter()
    with rec.span(
        "campaign",
        mode="adaptive",
        max_trials=int(max_trials),
        chunk_size=int(chunk_size),
        n_workers=int(n_workers),
    ):
        records = _run_trials(
            trial_fn,
            max_trials,
            range(max_trials),
            master_seed=master_seed,
            n_workers=n_workers,
            trial_kwargs=trial_kwargs,
            mp_context=mp_context,
            on_boundary=check_boundary,
            chunk_size=chunk_size,
        )
    converged = satisfied[-1]

    if converged:
        reason = (
            f"{stopping.metric} CI half-width {half_widths[-1]:.4g} within "
            f"tolerance after {len(records)}/{max_trials} trials"
        )
    else:
        reason = f"trial budget exhausted ({max_trials} trials)"
    if rec.active:
        _record_campaign_metrics(rec, len(records), n_workers, wall_start)
        rec.count("scheduler.boundaries", len(half_widths))
        rec.count("scheduler.trials_committed", len(records))
        rec.count("scheduler.trials_saved", max_trials - len(records))
        rec.event(
            "scheduler.stop",
            converged=converged,
            reason=reason,
            committed=len(records),
            max_trials=int(max_trials),
        )
    return ScheduledCampaignResult(
        master_seed=int(master_seed),
        records=tuple(records),
        max_trials=int(max_trials),
        chunk_size=int(chunk_size),
        converged=converged,
        stop_reason=reason,
        half_width_trace=tuple(half_widths),
    )
