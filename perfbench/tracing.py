"""Per-layer timing for a traced run, recorded from benchmark code.

:class:`LayerTracer` wraps each layer's public entry point by rebinding
the name its caller looks up, and records every wrapped call as a
``repro.telemetry`` span carrying the campaign id.  Callers resolve
those names in three ways, and each is rebound where it is looked up:

- attributes of the caller's module (``repro.scenarios.trial.*``,
  ``repro.core.distributed.build_*``, ``repro.scenarios.runner
  .scenario_trial``, ``repro.engine.localmaps.batch_lss_descend_padded``);
- names imported from the defining module at call time
  (``solve_multilateration_batch``, ``batch_lss_descend``,
  ``solve_local_lss_stack``, and ``repro.ranging``'s ``run_campaign`` /
  ``triangle_filter`` inside ``draw_ranges``);
- class attributes (``ResultStore.get``/``put``,
  ``RangingService.calibrate``).

The spans land in the same recorder as the program's own
``scenario``/``campaign``/``solve`` spans and kernel counters, so one
trace holds everything and loads in ``repro trace summarize``.
:func:`layer_metrics` turns that trace into the per-layer metrics; a
layer's self time is its span wall time minus its direct child spans.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro import telemetry

#: Program counter the LSS descent kernel bumps once per call.
LSS_ITERATIONS = "engine.batch.lss_iterations"

#: Program counters reported as per-layer metrics, under their own names.
PROGRAM_COUNTERS = (
    "engine.batch.gd_iterations",
    "engine.batch.gd_compactions",
    "engine.batch.lss_iterations",
    "engine.batch.lss_padded_iterations",
    "engine.batch.lss_padded_compactions",
    "engine.localmaps.problems",
    "scheduler.boundaries",
    "scheduler.trials_saved",
)

#: Span name -> per-layer self-time metric.  ``core.distributed`` is
#: ``distributed_localize`` itself, whose self time is the alignment
#: (tree building, transform composition) once its children are removed.
SELF_TIME_METRICS = {
    "deploy": "deploy.self_s",
    "ranging": "ranging.self_s",
    "ranging.run_campaign": "ranging.run_campaign.self_s",
    "ranging.calibrate": "ranging.calibrate.self_s",
    "ranging.triangle_filter": "ranging.triangle_filter.self_s",
    "core.multilateration": "core.multilateration.self_s",
    "engine.batch.multilat": "engine.batch.multilat.self_s",
    "core.aps": "core.aps.self_s",
    "core.lss": "core.lss.self_s",
    "engine.batch.lss_descend": "engine.batch.lss_descend.self_s",
    "core.distributed.local_maps": "core.distributed.local_maps.self_s",
    "engine.localmaps": "engine.localmaps.self_s",
    "engine.batch.lss_descend_padded": "engine.batch.lss_descend_padded.self_s",
    "core.distributed.transforms": "core.distributed.transforms.self_s",
    "core.distributed": "core.distributed.align.self_s",
    "core.evaluation": "core.evaluation.self_s",
    "store.get": "store.get.self_s",
    "store.put": "store.put.self_s",
}

TRIAL_SPAN = "trial"
SCENARIO_SPAN = "scenario"  # the program's own span around run_scenario


def _observe_ranges(totals, args, kwargs, result) -> None:
    totals["ranging.edges"] += len(result)


def _observe_triangle_filter(totals, args, kwargs, result) -> None:
    totals["triangle.seen"] += len(args[0])
    totals["triangle.kept"] += len(result)


def _observe_multilat(totals, args, kwargs, result) -> None:
    solved = np.asarray(result[1])
    totals["engine.batch.multilat.problems"] += int(solved.size)
    totals["multilat.solved"] += int(solved.sum())


def _observe_store_get(totals, args, kwargs, result) -> None:
    totals["store.hits" if result is not None else "store.misses"] += 1


def _observe_store_put(totals, args, kwargs, result) -> None:
    totals["store.puts"] += 1
    totals["store.bytes_put"] += Path(result).stat().st_size


def _counter(name: str) -> float:
    return getattr(telemetry.current(), "counters", {}).get(name, 0)


class LayerTracer:
    """Rebinds layer entry points to span-recording wrappers.

    ``totals`` accumulates the values only the benchmark can count
    (edges returned, problems solved, store bytes); the timings live in
    the trace.  Use :meth:`installed` to patch for a block and restore
    the original bindings afterwards.
    """

    def __init__(self) -> None:
        self.campaign: Optional[str] = None
        self.totals: Dict[str, float] = defaultdict(float)

    def wrap(self, fn: Callable, span: str, observe: Optional[Callable] = None) -> Callable:
        """*fn* recorded as span *span*; returns *fn*'s value unchanged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with telemetry.span(span, campaign=self.campaign):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.totals, args, kwargs, result)
            return result

        return traced

    def _wrap_lss_descend(self, fn: Callable) -> Callable:
        """The LSS descent kernel, also counting pair terms: iterations
        x (edges + constraint pairs) x batch, per call."""
        timed = self.wrap(fn, "engine.batch.lss_descend")

        @functools.wraps(fn)
        def traced(configs, edges, constraint_pairs, **kwargs):
            before = _counter(LSS_ITERATIONS)
            result = timed(configs, edges, constraint_pairs, **kwargs)
            pairs = len(edges) + (0 if constraint_pairs is None else len(constraint_pairs))
            self.totals["engine.batch.lss_descend.pair_terms"] += (
                (_counter(LSS_ITERATIONS) - before) * pairs * np.shape(configs)[0]
            )
            return result

        return traced

    def _targets(self) -> List[tuple]:
        """``(owner, attribute, wrapper factory)`` for every entry point."""
        import repro.core.distributed as distributed
        import repro.engine.batch as batch
        import repro.engine.localmaps as localmaps
        import repro.ranging as ranging
        import repro.scenarios.runner as runner
        import repro.scenarios.trial as trial
        from repro.ranging import RangingService
        from repro.store import ResultStore

        def span(name, observe=None):
            return lambda fn: self.wrap(fn, name, observe)

        return [
            (runner, "scenario_trial", span(TRIAL_SPAN)),
            (trial, "draw_deployment", span("deploy")),
            (trial, "draw_ranges", span("ranging", _observe_ranges)),
            (ranging, "run_campaign", span("ranging.run_campaign")),
            (ranging, "triangle_filter", span("ranging.triangle_filter", _observe_triangle_filter)),
            (RangingService, "calibrate", span("ranging.calibrate")),
            (trial, "localize_network", span("core.multilateration")),
            (batch, "solve_multilateration_batch", span("engine.batch.multilat", _observe_multilat)),
            (trial, "dv_hop_localize", span("core.aps")),
            (trial, "lss_localize", span("core.lss")),
            (batch, "batch_lss_descend", self._wrap_lss_descend),
            (trial, "distributed_localize", span("core.distributed")),
            (distributed, "build_local_maps", span("core.distributed.local_maps")),
            (localmaps, "solve_local_lss_stack", span("engine.localmaps")),
            (localmaps, "batch_lss_descend_padded", span("engine.batch.lss_descend_padded")),
            (distributed, "build_transforms", span("core.distributed.transforms")),
            (trial, "evaluate_localization", span("core.evaluation")),
            (ResultStore, "get", span("store.get", _observe_store_get)),
            (ResultStore, "put", span("store.put", _observe_store_put)),
        ]

    @contextmanager
    def installed(self, campaign: str):
        """Patch every entry point for the block, tagging spans with
        *campaign*; the original bindings are restored on exit."""
        saved = []
        try:
            for owner, name, factory in self._targets():
                original = vars(owner)[name]
                saved.append((owner, name, original))
                setattr(owner, name, factory(original))
            self.campaign = campaign
            yield self
        finally:
            self.campaign = None
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self wall seconds per span name.

    Spans arrive in close order (``seq``), so a span's children are the
    closed, not yet adopted spans whose path extends its own.
    """
    totals: Dict[str, float] = defaultdict(float)
    pending: List[tuple] = []
    for span in sorted(spans, key=lambda s: s["seq"]):
        prefix = span["path"] + "/"
        children = [p for p in pending if p[0].startswith(prefix)]
        pending = [p for p in pending if not p[0].startswith(prefix)]
        pending.append((span["path"], span["wall_s"]))
        totals[span["name"]] += span["wall_s"] - sum(wall for _, wall in children)
    return totals


def _walls(spans, name: str) -> List[float]:
    return [s["wall_s"] for s in spans if s["name"] == name]


def layer_metrics(recorder, totals: Dict[str, float], overhead_frac: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run from its recorder and totals."""
    spans = recorder.spans
    self_s = self_times(spans)
    scenario_s = sum(_walls(spans, SCENARIO_SPAN))
    trial_walls = _walls(spans, TRIAL_SPAN)
    store_s = sum(sum(_walls(spans, name)) for name in ("store.get", "store.put"))

    metrics = {metric: self_s.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    metrics["engine.executor.overhead_s"] = scenario_s - sum(trial_walls) - store_s
    for name in PROGRAM_COUNTERS:
        metrics[name] = float(recorder.counters.get(name, 0))
    for name in ("ranging.edges", "engine.batch.multilat.problems",
                 "engine.batch.lss_descend.pair_terms", "store.puts",
                 "store.hits", "store.misses", "store.bytes_put"):
        metrics[name] = float(totals.get(name, 0))
    metrics["ranging.triangle_filter.keep_frac"] = _ratio(
        totals.get("triangle.kept", 0), totals.get("triangle.seen", 0)
    )
    metrics["engine.batch.multilat.solved_frac"] = _ratio(
        totals.get("multilat.solved", 0), totals.get("engine.batch.multilat.problems", 0)
    )
    metrics["engine.batch.lss_descend.ns_per_pair_term"] = _ratio(
        metrics["engine.batch.lss_descend.self_s"] * 1e9,
        totals.get("engine.batch.lss_descend.pair_terms", 0),
    )
    metrics["trial.wall_s_p50"] = float(np.percentile(trial_walls, 50)) if trial_walls else 0.0
    metrics["trial.wall_s_p90"] = float(np.percentile(trial_walls, 90)) if trial_walls else 0.0
    listed = sum(metrics[m] for m in SELF_TIME_METRICS.values()) + metrics[
        "engine.executor.overhead_s"
    ]
    metrics["trace.coverage_frac"] = _ratio(listed, scenario_s)
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
