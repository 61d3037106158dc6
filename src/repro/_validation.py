"""Internal input-validation helpers shared across the library.

These helpers normalize user input into canonical numpy arrays and raise
:class:`repro.errors.ValidationError` with actionable messages.  They are
deliberately small and side-effect free so algorithm modules stay focused
on the mathematics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_positions",
    "as_finite_array",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "ensure_rng",
]


def as_positions(points, name: str = "positions", *, allow_empty: bool = False) -> np.ndarray:
    """Coerce *points* to a float64 ``(n, 2)`` array of planar coordinates.

    Raises :class:`ValidationError` if the input is not convertible, has
    the wrong trailing dimension, or contains non-finite values.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(
            f"{name} must have shape (n, 2); got shape {arr.shape}"
        )
    if not allow_empty and arr.shape[0] == 0:
        raise ValidationError(f"{name} must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def as_finite_array(values, name: str = "values", *, ndim: Optional[int] = None) -> np.ndarray:
    """Coerce *values* to a finite float64 array, optionally checking ndim."""
    arr = np.asarray(values, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional; got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_positive(value: float, name: str) -> float:
    """Validate that *value* is a finite, strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive finite number; got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that *value* is a finite scalar >= 0."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be a non-negative finite number; got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be a probability in [0, 1]; got {value!r}")
    return value


def ensure_rng(rng=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh unseeded generator), an ``int`` seed, or an
    existing generator (returned unchanged).  This mirrors the
    ``random_state`` convention of scipy/sklearn but uses the modern
    Generator API throughout the library.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise ValidationError(
        f"rng must be None, an int seed, or numpy.random.Generator; got {type(rng)!r}"
    )
