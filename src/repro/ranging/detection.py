"""Signal recording and detection (Figure 3 of the paper).

The refined ranging service improves detection confidence by summing the
binary tone-detector outputs of several chirps *at the same buffer
offsets* (each chirp is re-synchronized by its own radio message, so a
genuine acoustic arrival lands at the same offset every time while
random noise does not).  Threshold detection then finds the beginning of
the chirp: a sample's accumulated count must reach the threshold ``T``,
and at least ``k`` of ``m`` consecutive samples must do so.

Every operation here has one row-wise kernel over a stack of buffers:
:func:`accumulate_rows` sums and clips a ``(rows, chirps, n)`` block of
binary streams, :func:`window_starts` marks every ``k``-of-``m`` window
start of a ``(rows, n)`` count stack from an integer ``cumsum`` of the
threshold hits, and :func:`detect_signal_rows` / :func:`first_hit_rows`
return one index per row.  The ranging simulator evaluates a whole
block of attempts through them at once.  The paper's single-buffer
functions -- ``record-signal`` (:func:`accumulate_chirps`) and
``detect-signal`` (:func:`detect_signal`), plus
:func:`detect_all_windows` and the baseline's :func:`first_hit` -- are
one-row calls of the same kernels.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ValidationError

__all__ = [
    "MAX_COUNT",
    "accumulate_rows",
    "accumulate_chirps",
    "window_starts",
    "detect_signal_rows",
    "first_hit_rows",
    "detect_signal",
    "detect_all_windows",
    "first_hit",
]

#: Accumulation counts saturate here: the service packs them into 4 bits
#: per buffer offset (Section 3.6.2).
MAX_COUNT = 15


def accumulate_rows(streams: np.ndarray) -> np.ndarray:
    """Sum each row's binary chirp streams into one clipped count buffer.

    *streams* has shape ``(rows, chirps, n)`` (bool or 0/1 integers);
    returns the int64 ``(rows, n)`` counts, clipped at :data:`MAX_COUNT`.
    """
    # A uint8 sum is exact up to 255 chirps and several times cheaper.
    dtype = np.uint8 if streams.shape[1] <= 255 else np.int64
    counts = np.sum(streams, axis=1, dtype=dtype)
    return np.minimum(counts, MAX_COUNT).astype(np.int64)


def accumulate_chirps(chirp_streams: Iterable[np.ndarray]) -> np.ndarray:
    """Sum per-chirp binary detector streams into one count buffer.

    Equivalent of ``record-signal``: each stream is the tone detector's
    binary output for one chirp, already aligned to the chirp's own
    radio sync message.  All streams must have equal length.  Counts are
    clipped at 15 — the service packs accumulation counts into 4 bits
    per buffer offset (Section 3.6.2).
    """
    streams = [np.asarray(s) for s in chirp_streams]
    if not streams:
        raise ValidationError("at least one chirp stream is required")
    length = streams[0].shape[0]
    for s in streams:
        if s.ndim != 1:
            raise ValidationError("chirp streams must be 1-dimensional")
        if s.shape[0] != length:
            raise ValidationError("chirp streams must have equal length")
        if np.any((s != 0) & (s != 1)):
            raise ValidationError("chirp streams must be binary (0/1)")
    return accumulate_rows(np.stack(streams)[None])[0]


def _check_window(k: int, m: int, threshold: int) -> None:
    if m < 1 or k < 1:
        raise ValidationError("k and m must be >= 1")
    if k > m:
        raise ValidationError(f"k ({k}) cannot exceed window size m ({m})")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")


def _rows(counts) -> np.ndarray:
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValidationError("counts must be 2-dimensional (rows, samples)")
    return counts


def _one_row(samples) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValidationError("samples must be 1-dimensional")
    return samples[None]


def window_starts(counts: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """Row-wise mask of detection-window starts.

    Entry ``[r, s]`` (for ``s`` in ``0 .. n - m``) is true when
    ``counts[r, s] >= threshold`` and at least ``k`` of the ``m``
    samples ``counts[r, s : s + m]`` reach it.  Window sums are
    differences of an integer ``cumsum`` of the threshold hits, so they
    are exact.  Rows shorter than ``m`` give a ``(rows, 0)`` mask.
    """
    counts = _rows(counts)
    _check_window(k, m, threshold)
    rows, n = counts.shape
    if n < m:
        return np.zeros((rows, 0), dtype=bool)
    hits = counts >= threshold
    running = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(hits, axis=1, out=running[:, 1:])
    in_window = running[:, m:] - running[:, : n - m + 1]
    return (in_window >= k) & hits[:, : n - m + 1]


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Per-row index of the first true entry, -1 for all-false rows."""
    if mask.shape[1] == 0:
        return np.full(mask.shape[0], -1, dtype=np.int64)
    first = np.argmax(mask, axis=1)
    return np.where(mask[np.arange(mask.shape[0]), first], first, -1).astype(np.int64)


def detect_signal_rows(counts: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """:func:`detect_signal` for every row of a ``(rows, n)`` stack:
    the int64 first window start per row, -1 where none exists."""
    return _first_true(window_starts(counts, k, m, threshold))


def first_hit_rows(counts: np.ndarray, threshold: int = 1) -> np.ndarray:
    """:func:`first_hit` for every row of a ``(rows, n)`` stack."""
    counts = _rows(counts)
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    return _first_true(counts >= threshold)


def detect_signal(samples: np.ndarray, k: int, m: int, threshold: int) -> int:
    """Find the beginning of the acoustic signal in a count buffer.

    Faithful translation of the paper's ``detect-signal``: returns the
    smallest index ``s`` such that

    * ``samples[s] >= threshold`` (the window starts on a hit), and
    * at least ``k`` of the ``m`` samples ``samples[s : s + m]`` reach
      the threshold,

    or ``-1`` when no such window exists.  ``k``, ``m`` and
    ``threshold`` correspond to the paper's pattern-identification
    parameters (the field experiments used ``T = 2``, ``k = 6``,
    ``m = 32`` with 10 accumulated chirps — Section 3.6).
    """
    return int(detect_signal_rows(_one_row(samples), k, m, threshold)[0])


def detect_all_windows(samples: np.ndarray, k: int, m: int, threshold: int) -> np.ndarray:
    """All window-start indices satisfying the detection criterion.

    Diagnostic companion to :func:`detect_signal` (which returns only
    the first); useful for studying echo-induced secondary detections.
    """
    return np.nonzero(window_starts(_one_row(samples), k, m, threshold)[0])[0]


def first_hit(samples: np.ndarray, threshold: int = 1) -> int:
    """Index of the first sample reaching *threshold*, or -1.

    This is the *baseline* service's naive detection (Section 3.3): the
    hardware tone detector's first positive output is taken as the
    beginning of the chirp — the behaviour whose unreliability motivates
    the refined algorithm.
    """
    return int(first_hit_rows(_one_row(samples), threshold)[0])
