"""Recorder objects: the null default and the in-memory trace recorder.

Two recorder implementations share one duck-typed surface:

- :class:`NullRecorder` — the process-wide default.  Every method is a
  no-op and ``span()`` returns a shared stateless context manager, so
  instrumentation left in hot paths costs one attribute lookup and one
  call when tracing is off (``benchmarks/test_bench_telemetry.py``
  enforces the ceiling).
- :class:`TraceRecorder` — accumulates spans, counters, gauges,
  histogram observations, and events in memory, then serializes them to
  a JSONL trace (see :mod:`repro.telemetry.schema`).

Recorders are process-local and not thread-safe; the engine's
parallelism is process-based (``multiprocessing``), and workers record
into their own capture recorder (:func:`repro.telemetry.capture`) whose
snapshot the parent merges deterministically in trial-index order
(:meth:`TraceRecorder.merge_worker`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["NullRecorder", "NULL_RECORDER", "TraceRecorder"]


def _scrub(value: Any) -> Any:
    """Coerce attribute/field values to plain JSON-serializable types.

    NumPy scalars (and anything else numeric) come through ``float`` /
    ``int``; unknown objects fall back to ``str``.  Keeps trace writing
    independent of what callers happen to pass.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _scrub(value.item())
    return str(value)


class _NullSpan:
    """Stateless context manager returned by :meth:`NullRecorder.span`."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    ``active`` is the one attribute instrumented code may branch on to
    skip work whose *inputs* are expensive to compute (e.g. utilization
    math); plain ``count``/``observe``/``span`` calls need no guard.
    """

    active = False

    __slots__ = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def add_span(self, name, wall_s, cpu_s, *, under=None, **attrs):
        pass

    def count(self, name, value=1):
        pass

    def observe(self, name, value):
        pass

    def gauge(self, name, value):
        pass

    def event(self, name, **fields):
        pass

    def set_manifest(self, **fields):
        pass

    def merge_worker(self, data, *, under=None):
        pass

    def current_path(self) -> str:
        return ""


NULL_RECORDER = NullRecorder()


class _Span:
    """Live span context manager; records itself on exit."""

    __slots__ = ("_recorder", "_name", "_attrs", "_wall0", "_cpu0")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._recorder._stack.append(self._name)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.process_time() - self._cpu0
        rec = self._recorder
        path = "/".join(rec._stack)
        rec._stack.pop()
        error = None if exc_type is None else exc_type.__name__
        rec._record_span(self._name, path, wall_s, cpu_s, self._attrs, error)
        return False


class TraceRecorder:
    """In-memory telemetry accumulator with JSONL serialization.

    Spans nest through a path stack (``campaign/chunk/solve``); counters
    sum, gauges keep their last value, histograms keep raw observations
    (summarized at write time), events keep insertion order.  A global
    ``seq`` orders spans and events for deterministic replay.
    """

    active = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.manifest: Dict[str, Any] = {}
        #: Total instrumentation calls routed through this recorder —
        #: the disabled-overhead benchmark multiplies this by the
        #: measured null-path per-call cost.
        self.instrumentation_calls = 0
        self._stack: List[str] = []
        self._seq = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        """Context manager timing a nested phase (wall + CPU seconds)."""
        self.instrumentation_calls += 1
        return _Span(self, name, attrs)

    def add_span(self, name, wall_s, cpu_s, *, under=None, **attrs) -> None:
        """Record an externally timed span.

        *under* overrides the parent path (default: the current span
        stack) — used where the timed region does not nest lexically,
        e.g. streamed scheduler chunks.
        """
        self.instrumentation_calls += 1
        base = self.current_path() if under is None else under
        path = f"{base}/{name}" if base else name
        self._record_span(name, path, float(wall_s), float(cpu_s), attrs)

    def _record_span(self, name, path, wall_s, cpu_s, attrs, error=None) -> None:
        record = {
            "type": "span",
            "name": name,
            "path": path,
            "wall_s": max(0.0, float(wall_s)),
            "cpu_s": max(0.0, float(cpu_s)),
            "attrs": _scrub(attrs),
            "seq": self._next_seq(),
        }
        if error is not None:
            # Only a span left through an exception carries the field,
            # so successful span records stay byte-identical.
            record["error"] = error
        self.spans.append(record)

    def count(self, name: str, value=1) -> None:
        """Add *value* to the named monotonic counter."""
        self.instrumentation_calls += 1
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value) -> None:
        """Record one observation into the named histogram."""
        self.instrumentation_calls += 1
        self.histograms.setdefault(name, []).append(float(value))

    def gauge(self, name: str, value) -> None:
        """Set the named gauge to its latest value."""
        self.instrumentation_calls += 1
        self.gauges[name] = float(value)

    def event(self, name: str, **fields) -> None:
        """Record a discrete event at the current span path."""
        self.instrumentation_calls += 1
        self.events.append(
            {
                "type": "event",
                "name": name,
                "path": self.current_path(),
                "fields": _scrub(fields),
                "seq": self._next_seq(),
            }
        )

    def set_manifest(self, **fields) -> None:
        """Merge fields into the run manifest (first trace line)."""
        self.instrumentation_calls += 1
        self.manifest.update(_scrub(fields))

    def current_path(self) -> str:
        return "/".join(self._stack)

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # -- worker aggregation --------------------------------------------

    def worker_data(self) -> Dict[str, Any]:
        """Snapshot for shipping back to the parent process.

        ``busy_s`` is the wall time of the worker's root spans — the
        parent uses it for utilization accounting.
        """
        busy = sum(s["wall_s"] for s in self.spans if "/" not in s["path"])
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: list(v) for k, v in self.histograms.items()},
            "spans": list(self.spans),
            "events": list(self.events),
            "busy_s": busy,
        }

    def merge_worker(self, data: Dict[str, Any], *, under: Optional[str] = None) -> None:
        """Fold one worker snapshot into this recorder.

        Counters sum, gauges take the worker's last value, histogram
        observations extend, and spans/events re-root beneath *under*
        (default: the current span path) with fresh parent-side ``seq``
        numbers.  Merging snapshots in trial-index order therefore
        yields the same trace whatever the worker count — the telemetry
        analogue of determinism guarantee #2.
        """
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in data.get("gauges", {}).items():
            self.gauges[name] = value
        for name, values in data.get("histograms", {}).items():
            self.histograms.setdefault(name, []).extend(values)
        prefix = self.current_path() if under is None else under
        for span in data.get("spans", []):
            span = dict(span)
            span["path"] = f"{prefix}/{span['path']}" if prefix else span["path"]
            span["seq"] = self._next_seq()
            self.spans.append(span)
        for event in data.get("events", []):
            event = dict(event)
            epath = event.get("path", "")
            if prefix:
                event["path"] = f"{prefix}/{epath}" if epath else prefix
            event["seq"] = self._next_seq()
            self.events.append(event)

    # -- serialization -------------------------------------------------

    def records(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """All trace records, manifest first (see the schema module).

        ``now`` threads through to :func:`base_manifest` so tests can
        pin the manifest's ``created_unix`` stamp.
        """
        from .manifest import base_manifest
        from .schema import TRACE_SCHEMA_VERSION

        manifest = base_manifest(now=now)
        manifest.update(self.manifest)
        manifest["type"] = "manifest"
        manifest["schema"] = TRACE_SCHEMA_VERSION
        out: List[Dict[str, Any]] = [manifest]
        out.extend(sorted(self.spans, key=lambda s: s["seq"]))
        for name in sorted(self.counters):
            # _scrub: counter increments keep caller types (ints stay
            # exact), so numpy integers may survive to emission time.
            out.append(
                {"type": "counter", "name": name, "value": _scrub(self.counters[name])}
            )
        for name in sorted(self.gauges):
            out.append({"type": "gauge", "name": name, "value": self.gauges[name]})
        for name in sorted(self.histograms):
            values = self.histograms[name]
            out.append(
                {
                    "type": "histogram",
                    "name": name,
                    "count": len(values),
                    "sum": sum(values),
                    "min": min(values),
                    "max": max(values),
                    "mean": sum(values) / len(values),
                }
            )
        out.extend(sorted(self.events, key=lambda e: e["seq"]))
        return out

    def write(self, path, now: Optional[float] = None) -> int:
        """Write the JSONL trace to *path*; returns the record count."""
        from .schema import write_trace

        records = self.records(now=now)
        write_trace(path, records)
        return len(records)
