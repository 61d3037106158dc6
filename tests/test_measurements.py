"""Tests for the measurement data model (repro.core.measurements)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _measurements_reference import ReferenceMeasurementSet
from repro.core.measurements import EdgeList, MeasurementSet, RangeMeasurement
from repro.errors import ValidationError


class TestRangeMeasurement:
    def test_basic_fields(self):
        m = RangeMeasurement(0, 1, 9.5, true_distance=9.0, round_index=2)
        assert m.source == 0 and m.receiver == 1
        assert m.error == pytest.approx(0.5)

    def test_error_none_without_truth(self):
        assert RangeMeasurement(0, 1, 5.0).error is None

    def test_is_an_unchecked_value(self):
        # Validation happens where a measurement enters a set.
        assert RangeMeasurement(3, 3, -1.0).distance == -1.0

    def test_zero_distance_allowed(self):
        # Garbage detections at buffer start produce 0.0 estimates.
        assert RangeMeasurement(0, 1, 0.0).distance == 0.0


class TestMeasurementSetBasics:
    def test_empty(self):
        ms = MeasurementSet()
        assert len(ms) == 0
        assert ms.undirected_pairs == []
        assert ms.node_ids == []

    def test_add_and_len(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(0, 1, 5.2)
        ms.add_distance(1, 0, 4.9)
        assert len(ms) == 3
        assert ms.directed_pairs == [(0, 1), (1, 0)]
        assert ms.undirected_pairs == [(0, 1)]

    def test_contains(self):
        ms = MeasurementSet()
        ms.add_distance(2, 7, 3.0)
        assert (2, 7) in ms
        assert (7, 2) not in ms

    def test_get_and_distances(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(0, 1, 6.0)
        assert list(ms.distances(0, 1)) == [5.0, 6.0]
        assert ms.distances(1, 0).size == 0

    def test_neighbors(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(2, 0, 1.0)
        ms.add_distance(3, 4, 1.0)
        assert ms.neighbors(0) == [1, 2]
        assert ms.neighbors(3) == [4]
        assert ms.neighbors(9) == []

    def test_has_bidirectional(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        assert not ms.has_bidirectional(0, 1)
        ms.add_distance(1, 0, 1.0)
        assert ms.has_bidirectional(0, 1)
        assert ms.has_bidirectional(1, 0)

    def test_degree_histogram(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 2, 1.0)
        assert ms.degree_histogram() == {0: 2, 1: 1, 2: 1}

    def test_merge(self):
        a = MeasurementSet()
        a.add_distance(0, 1, 1.0)
        b = MeasurementSet()
        b.add_distance(1, 2, 2.0)
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(a) == 1 and len(b) == 1  # originals untouched

    def test_iteration_yields_all(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 1, 2.0)
        ms.add_distance(2, 3, 3.0)
        assert sorted(m.distance for m in ms) == [1.0, 2.0, 3.0]

    def test_filter(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(0, 2, 10.0)
        kept = ms.filter(lambda m: m.distance < 5)
        assert len(kept) == 1

    def test_restrict_to_nodes(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        ms.add_distance(1, 2, 1.0)
        ms.add_distance(2, 3, 1.0)
        sub = ms.restrict_to_nodes([0, 1, 2])
        assert sub.undirected_pairs == [(0, 1), (1, 2)]

    def test_signed_errors(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0, true_distance=4.0)
        ms.add_distance(1, 2, 3.0)  # no truth
        errs = ms.signed_errors()
        assert errs == pytest.approx([1.0])


class TestReduce:
    def test_median(self):
        ms = MeasurementSet()
        for d in (5.0, 100.0, 5.2):
            ms.add_distance(0, 1, d)
        reduced = ms.reduce("median")
        assert len(reduced) == 1
        assert reduced.distances(0, 1)[0] == pytest.approx(5.2)

    def test_mean(self):
        ms = MeasurementSet()
        for d in (4.0, 6.0):
            ms.add_distance(0, 1, d)
        assert ms.reduce("mean").distances(0, 1)[0] == pytest.approx(5.0)

    def test_mode_resists_outliers(self):
        ms = MeasurementSet()
        for d in (5.0, 5.1, 5.2, 4.9, 17.0, 18.0):
            ms.add_distance(0, 1, d)
        value = ms.reduce("mode").distances(0, 1)[0]
        assert 4.8 <= value <= 5.3

    def test_mode_single_value(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 7.7)
        assert ms.reduce("mode").distances(0, 1)[0] == pytest.approx(7.7)

    def test_unknown_statistic(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        with pytest.raises(ValidationError):
            ms.reduce("max")

    def test_truth_preserved_when_consistent(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0, true_distance=5.5)
        ms.add_distance(0, 1, 5.4, true_distance=5.5)
        reduced = ms.reduce("median")
        assert reduced.get(0, 1)[0].true_distance == pytest.approx(5.5)

    def test_reduce_idempotent(self):
        ms = MeasurementSet()
        for d in (1.0, 2.0, 3.0):
            ms.add_distance(0, 1, d)
        once = ms.reduce("median")
        twice = once.reduce("median")
        assert once.distances(0, 1)[0] == twice.distances(0, 1)[0]


class TestSymmetrize:
    def test_averages_directions(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 12.0)
        sym = ms.symmetrized()
        assert len(sym) == 1
        assert sym.distances(0, 1)[0] == pytest.approx(11.0)

    def test_keeps_one_way(self):
        ms = MeasurementSet()
        ms.add_distance(1, 0, 7.0)
        sym = ms.symmetrized()
        assert sym.distances(0, 1)[0] == pytest.approx(7.0)

    def test_stores_as_min_max(self):
        ms = MeasurementSet()
        ms.add_distance(5, 2, 3.0)
        sym = ms.symmetrized()
        assert sym.directed_pairs == [(2, 5)]


class TestEdgeList:
    def test_export(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(1, 0, 7.0)
        ms.add_distance(2, 0, 3.0)
        edges = ms.to_edge_list()
        assert len(edges) == 2
        lookup = {tuple(p): d for p, d in zip(edges.pairs, edges.distances)}
        assert lookup[(0, 1)] == pytest.approx(6.0)
        assert lookup[(0, 2)] == pytest.approx(3.0)
        assert np.all(edges.weights == 1.0)

    def test_weight_fn(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        edges = ms.to_edge_list(weight_fn=lambda d: 1.0 / d)
        assert edges.weights[0] == pytest.approx(0.1)

    def test_empty_export(self):
        edges = MeasurementSet().to_edge_list()
        assert len(edges) == 0
        assert edges.pairs.shape == (0, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EdgeList(
                pairs=np.zeros((2, 2), dtype=np.int64),
                distances=np.zeros(3),
                weights=np.zeros(2),
            )


class TestFromEdgeArrays:
    def test_roundtrip(self):
        pairs = np.array([[0, 1], [1, 2]])
        dists = np.array([3.0, 4.0])
        ms = MeasurementSet.from_edge_arrays(pairs, dists, true_distances=[3.1, 4.1])
        assert len(ms) == 2
        assert ms.get(0, 1)[0].true_distance == pytest.approx(3.1)

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValidationError):
            MeasurementSet.from_edge_arrays(
                np.zeros((2, 2)) + [[0, 1], [1, 2]],
                np.zeros(2),
                true_distances=np.zeros(1),
            )


@given(
    distances=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=9),
)
@settings(max_examples=50, deadline=None)
def test_median_reduce_between_min_and_max(distances):
    ms = MeasurementSet()
    for d in distances:
        ms.add_distance(0, 1, d)
    value = ms.reduce("median").distances(0, 1)[0]
    assert min(distances) - 1e-9 <= value <= max(distances) + 1e-9


@given(
    forward=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
    backward=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_symmetrized_between_direction_medians(forward, backward):
    ms = MeasurementSet()
    for d in forward:
        ms.add_distance(0, 1, d)
    for d in backward:
        ms.add_distance(1, 0, d)
    value = ms.symmetrized().distances(0, 1)[0]
    lo = min(np.median(forward), np.median(backward))
    hi = max(np.median(forward), np.median(backward))
    assert lo - 1e-9 <= value <= hi + 1e-9


# ---------------------------------------------------------------------------
# The validation boundary: every entry point rejects the same rows
# ---------------------------------------------------------------------------

#: (pair, distance, reason fragment) of one bad row.
BAD_ROWS = {
    "nan-distance": ((0, 1), np.nan, "distances must be finite"),
    "inf-distance": ((0, 1), np.inf, "distances must be finite"),
    "negative-distance": ((0, 1), -1.0, "distances must be finite and non-negative"),
    "negative-id": ((-1, 1), 2.0, "node ids must be non-negative"),
    "self-pair": ((3, 3), 2.0, "source and receiver must differ"),
}


def _via_constructor(pair, distance):
    MeasurementSet([RangeMeasurement(1, 2, 1.0), RangeMeasurement(*pair, distance)])


def _via_add(pair, distance):
    ms = MeasurementSet()
    ms.add(RangeMeasurement(1, 2, 1.0))
    ms.add(RangeMeasurement(*pair, distance))


def _via_add_distance(pair, distance):
    ms = MeasurementSet()
    ms.add_distance(1, 2, 1.0)
    ms.add_distance(*pair, distance)


def _via_add_pairs(pair, distance):
    MeasurementSet().add_pairs([(1, 2), pair], [1.0, distance])


def _via_from_edge_arrays(pair, distance):
    MeasurementSet.from_edge_arrays([(1, 2), pair], [1.0, distance])


def _via_edge_list(pair, distance):
    EdgeList(pairs=np.array([(1, 2), pair]), distances=np.array([1.0, distance]), weights=np.ones(2))


def _via_edge_list_weight(pair, distance):
    # The bad value sits in the weights column here.
    bad_pair = pair if distance == 2.0 else (0, 1)
    EdgeList(
        pairs=np.array([(1, 2), bad_pair]),
        distances=np.ones(2),
        weights=np.array([1.0, 1.0 if distance == 2.0 else distance]),
    )


ENTRY_POINTS = {
    "constructor": _via_constructor,
    "add": _via_add,
    "add_distance": _via_add_distance,
    "add_pairs": _via_add_pairs,
    "from_edge_arrays": _via_from_edge_arrays,
    "EdgeList": _via_edge_list,
    "EdgeList-weights": _via_edge_list_weight,
}


class TestValidationBoundary:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_every_entry_point_rejects_and_names_the_row(self, entry, bad):
        pair, distance, reason = BAD_ROWS[bad]
        if entry == "EdgeList-weights" and distance != 2.0:
            reason = reason.replace("distances", "weights")
        # A scalar append checks a one-row block, so its bad row is row 0.
        row = 0 if entry in ("add", "add_distance") else 1
        with pytest.raises(ValidationError, match=f"row {row}: {reason}"):
            ENTRY_POINTS[entry](pair, distance)

    def test_rejected_rows_leave_the_set_unchanged(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)
        with pytest.raises(ValidationError):
            ms.add_pairs([(0, 2), (2, 2)], [1.0, 1.0])
        assert len(ms) == 1 and ms.directed_pairs == [(0, 1)]

    def test_zero_distance_and_weight_are_accepted(self):
        ms = MeasurementSet.from_edge_arrays([(0, 1)], [0.0])
        edges = EdgeList(pairs=np.array([(0, 1)]), distances=np.zeros(1), weights=np.zeros(1))
        assert len(ms) == 1 and len(edges) == 1

    def test_shape_errors(self):
        with pytest.raises(ValidationError, match=r"shape \(m, 2\)"):
            MeasurementSet().add_pairs(np.zeros(4, dtype=int), np.ones(4))
        with pytest.raises(ValidationError, match="weights must have shape"):
            EdgeList(pairs=np.array([(0, 1)]), distances=np.ones(1), weights=np.ones(2))

    def test_solvers_see_the_boundary(self):
        from repro.core import localize_network

        with pytest.raises(ValidationError, match="row 0: distances"):
            localize_network(
                EdgeList(pairs=np.array([(0, 1)]), distances=np.array([np.nan]), weights=np.ones(1)),
                {0: (0.0, 0.0)},
                2,
            )


# ---------------------------------------------------------------------------
# Columnar storage against the dict-of-lists reference
# ---------------------------------------------------------------------------


def _key(m):
    """Bit-exact identity of a measurement (float.hex tells -0.0 and
    0.0 apart and never rounds)."""
    truth = None if m.true_distance is None else float(m.true_distance).hex()
    return (m.source, m.receiver, float(m.distance).hex(), truth, m.round_index)


def _rows_strategy(max_node):
    # Few distinct distances force ties and shared mode bins (most of
    # them fall in [1.0, 1.5), where summation order shows in the last
    # bit); truths are unknown, per-pair consistent, or a fixed value,
    # so a pair's truths come out equal, mixed or all None.
    node = st.integers(0, max_node)
    distance = st.one_of(
        st.sampled_from([0.0, 0.25, 1.0, 1.05, 1.1, 1.2, 1.3, 1.35, 1.4, 7.3]),
        st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False),
    )
    truth = st.sampled_from([None, "pair", 5.0])
    row = st.tuples(node, node, distance, truth, st.integers(0, 3)).filter(
        lambda r: r[0] != r[1]
    )
    return st.lists(row, max_size=60)


def _build(rows):
    ours, reference = MeasurementSet(), ReferenceMeasurementSet()
    for source, receiver, distance, truth, round_index in rows:
        if truth == "pair":
            truth = float(min(source, receiver) + 2 * max(source, receiver))
        for ms in (ours, reference):
            ms.add_distance(source, receiver, distance, true_distance=truth, round_index=round_index)
    return ours, reference


@given(rows=st.integers(1, 4).flatmap(_rows_strategy))
@example(  # one mode bin whose insertion-order sum differs from the sorted one
    rows=[(0, 1, d, None, 0) for d in (1.4, 1.35, 1.3, 1.2, 1.05)] + [(1, 0, 7.3, None, 0)]
)
@settings(max_examples=200, deadline=None)
def test_columnar_matches_dict_of_lists_reference(rows):
    ours, reference = _build(rows)
    assert [_key(m) for m in ours] == [_key(m) for m in reference]
    for statistic in ("median", "mean", "mode"):
        assert [_key(m) for m in ours.reduce(statistic)] == [
            _key(m) for m in reference.reduce(statistic)
        ]
    assert [_key(m) for m in ours.symmetrized()] == [
        _key(m) for m in reference.symmetrized()
    ]
    got, want = ours.to_edge_list(), reference.to_edge_list()
    for a, b in ((got.pairs, want.pairs), (got.distances, want.distances), (got.weights, want.weights)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(rows=_rows_strategy(3))
@settings(max_examples=50, deadline=None)
def test_bulk_append_matches_scalar_appends(rows):
    scalar, _ = _build(rows)
    bulk = MeasurementSet()
    bulk.add_pairs(
        scalar.source.reshape(-1, 1).repeat(2, axis=1) * [1, 0] + scalar.receiver.reshape(-1, 1) * [0, 1],
        scalar.distance,
        true_distances=scalar.true_distance,
        round_index=scalar.round_index,
    )
    assert [_key(m) for m in bulk] == [_key(m) for m in scalar]


class TestPairIndex:
    def test_index_follows_appends(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        assert (0, 1) in ms and not ms.has_bidirectional(0, 1)
        ms.add_pairs([(1, 0), (0, 1)], [4.0, 6.0])
        assert ms.has_bidirectional(1, 0)
        assert ms.distances(0, 1).tolist() == [5.0, 6.0]
        assert [m.distance for m in ms.get(1, 0)] == [4.0]
        assert ms.distances(2, 3).shape == (0,)

    def test_numpy_integer_keys(self):
        ms = MeasurementSet.from_edge_arrays([(2, 7)], [3.0])
        assert (np.int64(2), np.int64(7)) in ms
        assert ms.distances(np.int64(2), np.int64(7)).tolist() == [3.0]

    def test_columns_are_read_only_views(self):
        ms = MeasurementSet.from_edge_arrays([(0, 1)], [3.0])
        with pytest.raises(ValueError):
            ms.distance[0] = 1.0


class TestSyntheticBuilders:
    @pytest.mark.parametrize("sigma_m", [0.33, 25.0])
    def test_gaussian_ranges_matches_per_pair_scalar_draws(self, sigma_m):
        from repro.ranging.synthetic import eligible_pairs, gaussian_ranges

        positions = np.random.default_rng(3).uniform(0.0, 60.0, size=(40, 2))
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        measured = gaussian_ranges(positions, max_range_m=22.0, sigma_m=sigma_m, rng=ours)
        expected = []
        for i, j in eligible_pairs(positions, 22.0):
            truth = float(np.hypot(*(positions[i] - positions[j])))
            noisy = max(0.0, truth + float(reference.normal(0.0, sigma_m)))
            expected.append(RangeMeasurement(int(i), int(j), noisy, truth))
        assert [_key(m) for m in measured] == [_key(m) for m in expected]
        assert ours.bit_generator.state == reference.bit_generator.state
        if sigma_m > 1.0:
            assert any(m.distance == 0.0 for m in measured)  # the clamp ran

    def test_campaign_payload_bytes_are_pinned(self):
        # sha256 of the canonical JSON payload of a calibrated 3-round
        # urban campaign on a 4x4 grid at seed 2005, recorded with the
        # dict-of-lists storage; the columnar set reproduces it.
        import hashlib

        from repro._canonical import canonical_json
        from repro.acoustics import get_environment
        from repro.ranging import RangingService, run_campaign
        from repro.store.serialization import measurement_set_to_payload

        rng = np.random.default_rng(2005)
        positions = np.array([[8.0 * (i % 4), 8.0 * (i // 4)] for i in range(16)])
        service = RangingService(environment=get_environment("urban"), mode="refined")
        measured = run_campaign(positions, service.calibrate(rng=rng), rounds=3, rng=rng)
        payload = canonical_json(measurement_set_to_payload(measured))
        assert len(measured) == 589
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "282b263167505aa2d7252fe05a179dbb65abc55d03145f9f8287e9ea8351eb08"
        )
