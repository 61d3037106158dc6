"""Range-measurement data model shared by ranging and localization.

The ranging service (Section 3) produces *directed* distance
measurements: node ``i`` chirps, node ``j`` detects, yielding an estimate
of ``d_ij`` at ``j``.  Several estimates may exist per ordered pair (the
paper makes multiple rounds and filters with median/mode), and the
bidirectional consistency check compares the ``(i, j)`` and ``(j, i)``
estimates.  Localization (Section 4) consumes an *undirected* edge list
``(pairs, distances, weights)``.

:class:`MeasurementSet` holds the directed multi-measurements and
produces the undirected view; it is the interchange type across the
library.  It stores five parallel arrays in insertion order --
``source``, ``receiver``, ``distance``, ``true_distance`` (NaN where
unknown) and ``round_index`` -- and reduces them with sorts and segment
operations that are bit-equal to per-pair ``np.median``/``np.mean``.
Iteration yields :class:`RangeMeasurement` values grouped by directed
pair, pairs in order of first appearance, then in insertion order;
stored payloads follow that order.  Every append path and
:class:`EdgeList` run one vectorized check,
:func:`repro._validation.check_measurements`; a lone
:class:`RangeMeasurement` is an unchecked value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .._validation import check_measurements
from ..errors import InsufficientDataError, ValidationError

__all__ = ["RangeMeasurement", "EdgeList", "MeasurementSet", "as_edge_list"]


@dataclass(frozen=True)
class RangeMeasurement:
    """One directed distance estimate.

    Attributes
    ----------
    source : int
        Node that emitted the chirp.
    receiver : int
        Node that detected the chirp and computed the distance.
    distance : float
        Estimated distance in meters.
    true_distance : float or None
        Ground-truth distance when known (simulation only); ``None`` for
        field-style data.  Used for error analyses, never by algorithms.
    round_index : int
        Which measurement round produced this estimate.
    """

    source: int
    receiver: int
    distance: float
    true_distance: Optional[float] = None
    round_index: int = 0

    @property
    def error(self) -> Optional[float]:
        """Signed ranging error (estimate minus truth), if truth is known."""
        if self.true_distance is None:
            return None
        return self.distance - self.true_distance


@dataclass(frozen=True)
class EdgeList:
    """Undirected measurement view consumed by localization algorithms."""

    pairs: np.ndarray  # (m, 2) int64, i < j
    distances: np.ndarray  # (m,)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        check_measurements(self.pairs, self.distances, self.weights)

    def __len__(self) -> int:
        return int(self.pairs.shape[0])


def as_edge_list(
    measurements, n_nodes: Optional[int] = None, *, nonempty: bool = False
) -> EdgeList:
    """The undirected edge list of *measurements*.

    A :class:`MeasurementSet` is exported with
    :meth:`MeasurementSet.to_edge_list`; an :class:`EdgeList` passes
    through.  With *n_nodes*, edges naming a node outside
    ``[0, n_nodes)`` are rejected; with *nonempty*, so is an empty
    list (:class:`InsufficientDataError`).
    """
    if isinstance(measurements, MeasurementSet):
        edges = measurements.to_edge_list()
    elif isinstance(measurements, EdgeList):
        edges = measurements
    else:
        raise ValidationError(
            f"measurements must be a MeasurementSet or EdgeList; got {type(measurements)!r}"
        )
    if nonempty and len(edges) == 0:
        raise InsufficientDataError("no distance measurements supplied")
    if n_nodes is not None and np.any(edges.pairs >= n_nodes):
        raise ValidationError("edge indices outside [0, n_nodes)")
    return edges


def _segment_means(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each segment ``values[starts[k]:starts[k] + counts[k]]``.

    Segments of one length are summed as rows of one matrix, which
    reduces each row exactly as ``np.mean`` reduces it alone.
    """
    out = np.empty(counts.shape[0])
    for length in np.unique(counts):
        seg = np.flatnonzero(counts == length)
        block = values[starts[seg, None] + np.arange(length)]
        out[seg] = np.add.reduce(block, axis=1) / length
    return out


def _run_heads(*keys: np.ndarray) -> np.ndarray:
    """Start indices of the runs of equal key tuples in sorted keys."""
    size = keys[0].shape[0]
    head = np.ones(size, dtype=bool)
    if size:
        head[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return np.flatnonzero(head)


def _binned_modes(
    distance: np.ndarray, pair_id: np.ndarray, bin_width: float = 0.5
) -> np.ndarray:
    """Per-pair mode by densest bin, as the paper's statistical filter.

    Estimates are quantized to *bin_width* bins; the most populated bin
    wins (the lowest one on a tie) and its members' mean, in insertion
    order, is the pair's value.
    """
    bins = np.floor(distance / bin_width).astype(np.int64)
    order = np.lexsort((bins, pair_id))  # stable: insertion order within a bin
    run_pair, run_bin = pair_id[order], bins[order]
    starts = _run_heads(run_pair, run_bin)
    counts = np.diff(np.append(starts, order.shape[0]))
    pair_of_run = run_pair[starts]
    ranked = np.lexsort((-counts, pair_of_run))  # stable: lowest bin first among ties
    best = ranked[_run_heads(pair_of_run[ranked])]
    return _segment_means(distance[order], starts[best], counts[best])


def _columns(measurements: Iterable[RangeMeasurement]):
    """:meth:`MeasurementSet.add_pairs` arguments for measurement values."""
    rows = [
        (m.source, m.receiver, m.distance, m.true_distance, m.round_index)
        for m in measurements
    ]
    source, receiver, distance, truth, rounds = zip(*rows) if rows else ([],) * 5
    truth = [np.nan if t is None else t for t in truth]
    return np.column_stack((source, receiver)), distance, truth, rounds


class MeasurementSet:
    """A mutable collection of directed range measurements.

    Supports the reduction and filtering pipeline of Section 3.5
    (statistical filtering, bidirectional and triangle consistency
    checks live in :mod:`repro.ranging`, operating on this type) and
    exports the undirected edge list for localization.  See the module
    docstring for the storage layout and the iteration-order contract.
    """

    def __init__(self, measurements: Iterable[RangeMeasurement] = ()) -> None:
        self._pairs = np.empty((0, 2), dtype=np.int64)
        self._distance = np.empty(0)
        self._truth = np.empty(0)
        self._round = np.empty(0, dtype=np.int64)
        self._size = 0
        self._groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._index: Optional[Dict[Tuple[int, int], np.ndarray]] = None
        self.add_pairs(*_columns(measurements))

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def add_pairs(self, pairs, distances, true_distances=None, round_index=0) -> None:
        """Append one block of directed measurements.

        *pairs* is ``(m, 2)`` (source, receiver); *distances* and the
        optional *true_distances* (NaN for unknown) are ``(m,)``;
        *round_index* is one value or ``(m,)``.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        distances = np.asarray(distances, dtype=float)
        check_measurements(pairs, distances)
        m = pairs.shape[0]
        truth = np.full(m, np.nan) if true_distances is None else true_distances
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (m,):
            raise ValidationError("true_distances length must match pairs")
        size = self._size + m
        if size > self._distance.shape[0]:
            capacity = max(size, 2 * self._distance.shape[0])
            self._pairs = np.resize(self._pairs, (capacity, 2))
            self._distance, self._truth, self._round = (
                np.resize(c, capacity) for c in (self._distance, self._truth, self._round)
            )
        self._pairs[self._size : size] = pairs
        self._distance[self._size : size] = distances
        self._truth[self._size : size] = truth
        self._round[self._size : size] = round_index
        self._size = size
        self._groups = self._index = None

    def add(self, measurement: RangeMeasurement) -> None:
        """Add one directed measurement."""
        self.add_pairs(*_columns([measurement]))

    def add_distance(
        self,
        source: int,
        receiver: int,
        distance: float,
        *,
        true_distance: Optional[float] = None,
        round_index: int = 0,
    ) -> None:
        """Add one directed measurement given by its fields."""
        self.add(RangeMeasurement(source, receiver, distance, true_distance, round_index))

    def _block(self, rows) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(pairs, distances, truths, rounds)`` of *rows*, the
        :meth:`add_pairs` arguments that copy them."""
        rows = np.arange(self._size)[rows]
        return self._pairs[rows], self._distance[rows], self._truth[rows], self._round[rows]

    def merge(self, other: "MeasurementSet") -> "MeasurementSet":
        """Return a new set containing measurements from both sets."""
        merged = self.take(slice(None))
        merged.add_pairs(*other._block(slice(None)))
        return merged

    def take(self, rows) -> "MeasurementSet":
        """New set holding the given rows (indices or mask in insertion order)."""
        out = MeasurementSet()
        out.add_pairs(*self._block(rows))
        return out

    def _view(self, column: np.ndarray) -> np.ndarray:
        view = column[: self._size]
        view.flags.writeable = False
        return view

    @property
    def source(self) -> np.ndarray:
        """Emitting node of every row, in insertion order (read-only)."""
        return self._view(self._pairs[:, 0])

    @property
    def receiver(self) -> np.ndarray:
        """Detecting node of every row, in insertion order (read-only)."""
        return self._view(self._pairs[:, 1])

    @property
    def distance(self) -> np.ndarray:
        """Estimated distance of every row, in insertion order (read-only)."""
        return self._view(self._distance)

    @property
    def true_distance(self) -> np.ndarray:
        """Ground truth of every row, NaN where unknown (read-only)."""
        return self._view(self._truth)

    @property
    def round_index(self) -> np.ndarray:
        """Measurement round of every row, in insertion order (read-only)."""
        return self._view(self._round)

    def _grouping(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pair_id, first_rows)``: each row's directed pair, numbered
        by first appearance, and every pair's first row."""
        if self._groups is None:
            pairs = self._pairs[: self._size]
            width = int(pairs.max()) + 1 if self._size else 1
            keys = pairs[:, 0] * width + pairs[:, 1]
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(first.shape[0])
            self._groups = (rank[inverse].reshape(-1), np.sort(first))
        return self._groups

    def _iteration_order(self) -> np.ndarray:
        pair_id, _ = self._grouping()
        return np.argsort(pair_id, kind="stable")

    def _rows(self, source: int, receiver: int) -> np.ndarray:
        """Insertion-ordered rows of one ordered pair, via the index."""
        if self._index is None:
            pair_id, first = self._grouping()
            counts = np.bincount(pair_id, minlength=first.shape[0])
            keys = zip(self._pairs[first, 0].tolist(), self._pairs[first, 1].tolist())
            rows = np.split(self._iteration_order(), np.cumsum(counts)[:-1])
            self._index = dict(zip(keys, rows))
        return self._index.get((source, receiver), np.empty(0, dtype=np.int64))

    def _measurements(self, rows: np.ndarray) -> List[RangeMeasurement]:
        return [
            RangeMeasurement(s, r, d, None if t != t else t, k)
            for s, r, d, t, k in zip(
                self._pairs[rows, 0].tolist(),
                self._pairs[rows, 1].tolist(),
                self._distance[rows].tolist(),
                self._truth[rows].tolist(),
                self._round[rows].tolist(),
            )
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[RangeMeasurement]:
        return iter(self._measurements(self._iteration_order()))

    def __len__(self) -> int:
        return self._size

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return self._rows(*tuple(pair)).shape[0] > 0

    @property
    def directed_pairs(self) -> List[Tuple[int, int]]:
        """Ordered (source, receiver) pairs with at least one estimate."""
        _, first = self._grouping()
        return sorted(map(tuple, self._pairs[first].tolist()))

    @property
    def undirected_pairs(self) -> List[Tuple[int, int]]:
        """Unordered node pairs (i < j) with at least one estimate in
        either direction."""
        _, first = self._grouping()
        pairs = np.sort(self._pairs[first], axis=1)
        return list(map(tuple, np.unique(pairs, axis=0).tolist()))

    @property
    def node_ids(self) -> List[int]:
        """All node ids appearing in any measurement, sorted."""
        return np.unique(self._pairs[: self._size]).tolist()

    def get(self, source: int, receiver: int) -> List[RangeMeasurement]:
        """Directed measurements for an ordered pair ([] when absent)."""
        return self._measurements(self._rows(source, receiver))

    def distances(self, source: int, receiver: int) -> np.ndarray:
        """Distance estimates for an ordered pair as an array."""
        return self._distance[self._rows(source, receiver)]

    def has_bidirectional(self, i: int, j: int) -> bool:
        """True when estimates exist in both directions for the pair."""
        return (i, j) in self and (j, i) in self

    def neighbors(self, node: int) -> List[int]:
        """Nodes sharing an undirected measurement with *node*."""
        pairs = self._pairs[: self._size]
        partners = np.concatenate(
            [pairs[pairs[:, 0] == node, 1], pairs[pairs[:, 1] == node, 0]]
        )
        return np.unique(partners).tolist()

    def degree_histogram(self) -> Dict[int, int]:
        """Map node id -> number of undirected measurement partners."""
        ends = np.array(self.undirected_pairs, dtype=np.int64).reshape(-1)
        nodes, degrees = np.unique(ends, return_counts=True)
        return dict(zip(nodes.tolist(), degrees.tolist()))

    # ------------------------------------------------------------------
    # Reduction / export
    # ------------------------------------------------------------------

    def _reduced(self, statistic: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pairs, distances, truths)`` of :meth:`reduce`."""
        if statistic not in ("median", "mean", "mode"):
            raise ValidationError(f"unknown statistic {statistic!r}")
        pair_id, first = self._grouping()
        distance, truth = self._distance[: self._size], self._truth[: self._size]
        counts = np.bincount(pair_id, minlength=first.shape[0])
        starts = np.cumsum(counts) - counts
        if statistic == "median":
            ordered = distance[np.lexsort((distance, pair_id))]
            low = ordered[starts + (counts - 1) // 2]
            high = ordered[starts + counts // 2]
            value = np.where(counts % 2 == 1, low, (low + high) / 2)
        elif statistic == "mean":
            value = _segment_means(distance[self._iteration_order()], starts, counts)
        else:
            value = _binned_modes(distance, pair_id)
        first_truth = truth[first]
        reference = first_truth[pair_id]
        agrees = (truth == reference) | (np.isnan(truth) & np.isnan(reference))
        mixed = np.zeros(first.shape[0], dtype=bool)
        mixed[pair_id[~agrees]] = True
        return self._pairs[first], value, np.where(mixed, np.nan, first_truth)

    def reduce(self, statistic: str = "median") -> "MeasurementSet":
        """Collapse multi-round estimates per directed pair to one value.

        ``statistic`` is ``"median"``, ``"mode"`` or ``"mean"``; the
        paper uses the median for few measurements and the mode when
        many are available (Section 3.5, Statistical Filtering).  The
        mode here is the paper's coarse-bin variant: estimates are
        quantized to 0.5 m bins and the densest bin's member mean wins.
        A pair keeps its ground truth only when all its estimates carry
        the same one.  Pairs come out in first-appearance order.
        """
        return MeasurementSet.from_edge_arrays(*self._reduced(statistic))

    def _symmetric(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pairs, distances, truths)`` of :meth:`symmetrized`."""
        pairs, value, truth = self._reduced("median")
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        order = np.lexsort((pairs[:, 0] > pairs[:, 1], high, low))  # forward first
        low, high, value, truth = low[order], high[order], value[order], truth[order]
        starts = _run_heads(low, high)
        both = np.diff(np.append(starts, low.shape[0])) == 2
        second = np.where(both, starts + 1, starts)
        distance = np.where(both, (value[starts] + value[second]) / 2, value[starts])
        first_truth = truth[starts]
        truth = np.where(np.isnan(first_truth), truth[second], first_truth)
        return np.stack([low[starts], high[starts]], axis=1), distance, truth

    def symmetrized(self) -> "MeasurementSet":
        """Average the two directions of bidirectional pairs.

        Each direction is first reduced to its median.  Pairs with only
        one direction keep their single estimate.  The result contains
        exactly one directed measurement per undirected pair, stored as
        (min, max), in sorted order; its truth is the first known one,
        forward direction first.
        """
        return MeasurementSet.from_edge_arrays(*self._symmetric())

    def to_edge_list(
        self,
        *,
        weight_fn=None,
    ) -> EdgeList:
        """Export the undirected edge list for localization.

        Multi-round and bidirectional estimates are first collapsed with
        :meth:`symmetrized`.  *weight_fn*, if given, maps an undirected
        pair's collapsed distance to a weight; the default assigns the
        paper's constant weight 1.
        """
        pairs, distance, _ = self._symmetric()
        if weight_fn is None:
            weights = np.ones(distance.shape[0])
        else:
            weights = np.array([float(weight_fn(d)) for d in distance], dtype=float)
        return EdgeList(pairs=pairs, distances=distance, weights=weights)

    def filter(self, predicate) -> "MeasurementSet":
        """New set keeping measurements for which *predicate(m)* is true."""
        order = self._iteration_order()
        return self.take(order[[bool(predicate(m)) for m in self._measurements(order)]])

    def restrict_to_nodes(self, nodes: Iterable[int]) -> "MeasurementSet":
        """New set keeping measurements whose endpoints are both in *nodes*."""
        allowed = np.fromiter((int(n) for n in nodes), dtype=np.int64)
        return self.take(np.isin(self._pairs[: self._size], allowed).all(axis=1))

    def signed_errors(self) -> np.ndarray:
        """Signed errors for all measurements with known ground truth,
        in iteration order."""
        order = self._iteration_order()
        known = order[~np.isnan(self._truth[order])]
        return self._distance[known] - self._truth[known]

    @classmethod
    def from_edge_arrays(cls, pairs, distances, true_distances=None) -> "MeasurementSet":
        """Build a set from parallel arrays of pairs and distances."""
        out = cls()
        out.add_pairs(pairs, distances, true_distances)
        return out
