"""Dict-of-lists reference for the columnar ``MeasurementSet``.

This is the per-pair-list implementation the columnar storage
replaced, kept only as the reference the differential tests in
``tests/test_measurements.py`` compare against: per-pair Python lists
in insertion order, one ``np.median`` / ``np.mean`` call per pair.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.measurements import EdgeList, RangeMeasurement
from repro.errors import ValidationError


class ReferenceMeasurementSet:
    def __init__(self) -> None:
        self._directed: Dict[Tuple[int, int], List[RangeMeasurement]] = {}

    def add(self, measurement: RangeMeasurement) -> None:
        key = (measurement.source, measurement.receiver)
        self._directed.setdefault(key, []).append(measurement)

    def add_distance(self, source, receiver, distance, *, true_distance=None, round_index=0):
        self.add(RangeMeasurement(source, receiver, distance, true_distance, round_index))

    def __iter__(self):
        for measurements in self._directed.values():
            yield from measurements

    @property
    def undirected_pairs(self) -> List[Tuple[int, int]]:
        return sorted({(min(i, j), max(i, j)) for (i, j) in self._directed})

    def get(self, source: int, receiver: int) -> List[RangeMeasurement]:
        return list(self._directed.get((source, receiver), []))

    def distances(self, source: int, receiver: int) -> np.ndarray:
        return np.array([m.distance for m in self.get(source, receiver)])

    def reduce(self, statistic: str = "median") -> "ReferenceMeasurementSet":
        reduced = ReferenceMeasurementSet()
        for (i, j), measurements in self._directed.items():
            values = np.array([m.distance for m in measurements])
            truths = [m.true_distance for m in measurements]
            truth = truths[0] if all(t == truths[0] for t in truths) else None
            if statistic == "median":
                value = float(np.median(values))
            elif statistic == "mean":
                value = float(values.mean())
            elif statistic == "mode":
                value = _binned_mode(values)
            else:
                raise ValidationError(f"unknown statistic {statistic!r}")
            reduced.add_distance(i, j, value, true_distance=truth)
        return reduced

    def symmetrized(self) -> "ReferenceMeasurementSet":
        single = self.reduce("median")
        out = ReferenceMeasurementSet()
        for (i, j) in single.undirected_pairs:
            values = np.concatenate([single.distances(i, j), single.distances(j, i)])
            truth = None
            for m in single.get(i, j) + single.get(j, i):
                if m.true_distance is not None:
                    truth = m.true_distance
                    break
            out.add_distance(i, j, float(values.mean()), true_distance=truth)
        return out

    def to_edge_list(self) -> EdgeList:
        sym = self.symmetrized()
        pairs = sym.undirected_pairs
        if not pairs:
            return EdgeList(
                pairs=np.zeros((0, 2), dtype=np.int64),
                distances=np.zeros(0),
                weights=np.zeros(0),
            )
        dists = np.array([sym.distances(i, j)[0] for (i, j) in pairs])
        return EdgeList(
            pairs=np.asarray(pairs, dtype=np.int64), distances=dists, weights=np.ones(len(pairs))
        )


def _binned_mode(values: np.ndarray, bin_width: float = 0.5) -> float:
    if values.size == 1:
        return float(values[0])
    bins = np.floor(values / bin_width).astype(np.int64)
    unique, counts = np.unique(bins, return_counts=True)
    best_bin = unique[np.argmax(counts)]
    members = values[bins == best_bin]
    return float(members.mean())
