"""Deployment-constraint filtering (Section 3.5.1).

"Some sensor network deployments offer additional information about
sensor placement.  For example, a deployment may have a requirement of
minimum node separation ...  On a regular grid deployment, a set of
possible inter-node distances can be deduced from the size and shape of
the grid configuration.  These data provide additional constraints that
consistent ranging measurements should satisfy."

The paper lists this as planned future filtering; this module implements
it:

* :func:`min_spacing_filter` — drop measurements shorter than the
  deployment's minimum node separation (physically impossible).
* :func:`feasible_distance_filter` — on a known-geometry deployment,
  keep only measurements close to one of the feasible inter-node
  distances (optionally snapping the estimate to the nearest feasible
  value).
* :func:`grid_distance_set` — the feasible distances of an offset-grid
  deployment, up to a maximum range.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .._validation import as_positions, check_non_negative, check_positive
from ..core.geometry import pairwise_distances
from ..core.measurements import MeasurementSet
from ..errors import ValidationError

__all__ = [
    "min_spacing_filter",
    "grid_distance_set",
    "feasible_distance_filter",
]


def min_spacing_filter(
    measurements: MeasurementSet, min_spacing_m: float
) -> MeasurementSet:
    """Drop measurements below the deployment's minimum node separation.

    A range estimate shorter than the closest two nodes can physically
    be is necessarily a detection artifact (noise firing early in the
    buffer).  A small slack (10% of the spacing) tolerates genuine
    near-minimum links measured slightly short.
    """
    check_positive(min_spacing_m, "min_spacing_m")
    floor = 0.9 * min_spacing_m
    return measurements.take(measurements.distance >= floor)


def grid_distance_set(
    positions, max_range_m: float, *, resolution_m: float = 0.01
) -> np.ndarray:
    """The sorted set of feasible inter-node distances of a deployment.

    For a surveyed/regular deployment the achievable distances form a
    small discrete set (9, ~10.06, 13.5, ... for the paper's offset
    grid).  Distances are deduplicated at *resolution_m* granularity.
    """
    pts = as_positions(positions, "positions")
    check_positive(max_range_m, "max_range_m")
    check_positive(resolution_m, "resolution_m")
    dist = pairwise_distances(pts)
    iu = np.triu_indices(pts.shape[0], k=1)
    values = dist[iu]
    values = values[(values > 0) & (values <= max_range_m)]
    quantized = np.unique(np.round(values / resolution_m).astype(np.int64))
    return quantized * resolution_m


def feasible_distance_filter(
    measurements: MeasurementSet,
    feasible_distances,
    *,
    tolerance_m: float = 1.0,
    snap: bool = False,
) -> MeasurementSet:
    """Keep measurements near a feasible deployment distance.

    Parameters
    ----------
    measurements : MeasurementSet
        Input estimates.
    feasible_distances : array-like
        The achievable inter-node distances (e.g. from
        :func:`grid_distance_set`).
    tolerance_m : float
        Maximum deviation from the nearest feasible distance.
    snap : bool
        Replace each surviving estimate with its nearest feasible
        distance (exploits the survey geometry fully; appropriate only
        when the deployment followed the plan exactly).
    """
    feasible = np.sort(np.asarray(feasible_distances, dtype=float))
    if feasible.size == 0:
        raise ValidationError("feasible_distances must be non-empty")
    if np.any(feasible < 0):
        raise ValidationError("feasible distances must be non-negative")
    check_non_negative(tolerance_m, "tolerance_m")

    kept = []
    for m in measurements:
        idx = int(np.searchsorted(feasible, m.distance))
        candidates = []
        if idx < feasible.size:
            candidates.append(feasible[idx])
        if idx > 0:
            candidates.append(feasible[idx - 1])
        nearest = min(candidates, key=lambda f: abs(f - m.distance))
        if abs(nearest - m.distance) > tolerance_m:
            continue
        distance = float(nearest) if snap else m.distance
        kept.append(replace(m, distance=distance))
    return MeasurementSet(kept)
