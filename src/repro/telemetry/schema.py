"""The versioned JSONL trace schema: validation, reading, writing.

A trace is a JSON-Lines file.  Line 1 is the run **manifest** (record
type ``manifest``), which carries ``schema`` — the integer schema
version this file was written with.  Every subsequent line is one
record of type ``span``, ``counter``, ``gauge``, ``histogram``, or
``event``.  Records may carry *extra* keys beyond those required here
(forward-compatible minor additions); readers must reject files whose
``schema`` they do not know.

Validation is hand-rolled (no external JSON-schema dependency) and
raises :class:`repro.errors.ValidationError` with the offending line
number, so both the test suite and the CI gate
(``tools/check_trace_schema.py``) share one checker.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from ..errors import ValidationError

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "RECORD_TYPES",
    "validate_record",
    "validate_trace",
    "read_trace",
    "read_trace_lenient",
    "write_trace",
]

#: Bump on any backward-incompatible change to record shapes.
TRACE_SCHEMA_VERSION = 1

RECORD_TYPES = ("manifest", "span", "counter", "gauge", "histogram", "event")

_NUMBER = (int, float)


def _require(record: Dict[str, Any], field: str, types, where: str) -> Any:
    if field not in record:
        raise ValidationError(f"{where}: missing required field {field!r}")
    value = record[field]
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ValidationError(f"{where}: field {field!r} must not be a bool")
    if not isinstance(value, types):
        raise ValidationError(
            f"{where}: field {field!r} has type {type(value).__name__}"
        )
    return value


def validate_record(record: Any, line_no: int = 0) -> None:
    """Check one parsed trace record; raise ValidationError if invalid."""
    where = f"trace line {line_no}" if line_no else "trace record"
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: record must be a JSON object")
    rtype = record.get("type")
    if rtype not in RECORD_TYPES:
        raise ValidationError(
            f"{where}: unknown record type {rtype!r} "
            f"(expected one of {', '.join(RECORD_TYPES)})"
        )
    if rtype == "manifest":
        _require(record, "schema", int, where)
        _require(record, "created_unix", _NUMBER, where)
        _require(record, "host", str, where)
        _require(record, "repro_version", str, where)
    elif rtype == "span":
        name = _require(record, "name", str, where)
        path = _require(record, "path", str, where)
        if not name or not path:
            raise ValidationError(f"{where}: span name/path must be non-empty")
        if not path.endswith(name):
            raise ValidationError(f"{where}: span path must end with its name")
        for field in ("wall_s", "cpu_s"):
            if _require(record, field, _NUMBER, where) < 0:
                raise ValidationError(f"{where}: span {field} must be >= 0")
        _require(record, "seq", int, where)
        attrs = _require(record, "attrs", dict, where)
        if any(not isinstance(k, str) for k in attrs):
            raise ValidationError(f"{where}: span attr keys must be strings")
        if "error" in record and not _require(record, "error", str, where):
            raise ValidationError(f"{where}: span error must be non-empty")
    elif rtype in ("counter", "gauge"):
        if not _require(record, "name", str, where):
            raise ValidationError(f"{where}: {rtype} name must be non-empty")
        _require(record, "value", _NUMBER, where)
    elif rtype == "histogram":
        if not _require(record, "name", str, where):
            raise ValidationError(f"{where}: histogram name must be non-empty")
        if _require(record, "count", int, where) < 1:
            raise ValidationError(f"{where}: histogram count must be >= 1")
        for field in ("sum", "min", "max", "mean"):
            _require(record, field, _NUMBER, where)
    elif rtype == "event":
        if not _require(record, "name", str, where):
            raise ValidationError(f"{where}: event name must be non-empty")
        _require(record, "path", str, where)
        _require(record, "seq", int, where)
        _require(record, "fields", dict, where)


def validate_trace(records: List[Dict[str, Any]]) -> None:
    """Check a full parsed trace: per-record shapes plus file layout."""
    if not records:
        raise ValidationError("trace is empty (expected a manifest line)")
    for i, record in enumerate(records):
        validate_record(record, line_no=i + 1)
    if records[0].get("type") != "manifest":
        raise ValidationError("trace line 1: first record must be the manifest")
    manifests = [r for r in records if r.get("type") == "manifest"]
    if len(manifests) > 1:
        raise ValidationError("trace contains more than one manifest record")
    schema = manifests[0]["schema"]
    if schema != TRACE_SCHEMA_VERSION:
        raise ValidationError(
            f"trace schema version {schema} is not supported "
            f"(this build reads version {TRACE_SCHEMA_VERSION})"
        )


def read_trace(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse and validate a JSONL trace.

    Returns ``(manifest, records)`` where *records* excludes the
    manifest line.  Raises :class:`ValidationError` on malformed JSON,
    invalid records, or an unsupported schema version.
    """
    manifest, records, _ = _read_trace(path, drop_truncated_tail=False)
    return manifest, records


def read_trace_lenient(
    path,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], List[str]]:
    """Like :func:`read_trace`, but tolerate a crashed-writer tail.

    A process that dies mid-write leaves its *final* JSONL line
    truncated; strict reading would reject the whole file over bytes
    that carry no information.  This variant drops an unparseable final
    line and reports it in the returned warnings list, so inspection
    tools (``repro trace summarize``/``compare``/``export``) can render
    everything readable.  Malformed JSON anywhere *before* the final
    line is still an error — that is corruption, not truncation — and
    the surviving records must still pass full schema validation.

    Returns ``(manifest, records, warnings)``.
    """
    return _read_trace(path, drop_truncated_tail=True)


def _read_trace(
    path, *, drop_truncated_tail: bool
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], List[str]]:
    if not os.path.exists(path):
        raise ValidationError(f"trace file not found: {path}")
    records: List[Dict[str, Any]] = []
    warnings: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (line_no, text.strip())
            for line_no, text in enumerate(fh, start=1)
            if text.strip()
        ]
    for i, (line_no, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if drop_truncated_tail and i == len(lines) - 1:
                warnings.append(
                    f"trace line {line_no} is truncated mid-record (crashed "
                    f"writer?); dropped it and kept the {len(records)} "
                    f"readable records"
                )
                break
            raise ValidationError(
                f"trace line {line_no}: malformed JSON ({exc.msg})"
            ) from exc
    validate_trace(records)
    return records[0], records[1:], warnings


def write_trace(path, records: List[Dict[str, Any]]) -> None:
    """Write records as JSONL (one compact JSON object per line)."""
    # allow_nan: half-widths may legitimately be Infinity before the
    # first boundary with enough samples; json.loads round-trips it.
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=True))
            fh.write("\n")
