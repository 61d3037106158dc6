"""Tests for repro.ranging.detection (the Figure 3 algorithms)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.ranging.detection import (
    accumulate_chirps,
    accumulate_rows,
    detect_all_windows,
    detect_signal,
    detect_signal_rows,
    first_hit,
    first_hit_rows,
    window_starts,
)


class TestAccumulateChirps:
    def test_sums_binary_streams(self):
        streams = [np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0])]
        counts = accumulate_chirps(streams)
        assert list(counts) == [0, 2, 1, 1]

    def test_clips_at_15(self):
        streams = [np.ones(3, dtype=np.uint8)] * 20
        counts = accumulate_chirps(streams)
        assert list(counts) == [15, 15, 15]

    def test_single_stream(self):
        counts = accumulate_chirps([np.array([1, 0, 1])])
        assert list(counts) == [1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.zeros(3), np.zeros(4)])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.array([0, 2, 1])])

    def test_non_1d_rejected(self):
        with pytest.raises(ValidationError):
            accumulate_chirps([np.zeros((2, 2))])


def buffer_with_signal(n=200, start=80, length=40, count=8, noise_at=()):
    """A count buffer with a solid block of detections plus point noise."""
    buf = np.zeros(n, dtype=np.int64)
    buf[start : start + length] = count
    for idx in noise_at:
        buf[idx] = max(buf[idx], 3)
    return buf


class TestDetectSignal:
    def test_finds_signal_start(self):
        buf = buffer_with_signal()
        assert detect_signal(buf, k=6, m=32, threshold=2) == 80

    def test_isolated_noise_ignored(self):
        buf = buffer_with_signal(noise_at=(5, 30, 45))
        assert detect_signal(buf, k=6, m=32, threshold=2) == 80

    def test_dense_noise_cluster_triggers_early(self):
        # Six hits inside one 32-sample window *starting on a hit*
        # constitute a (false) detection: the algorithm cannot tell.
        buf = buffer_with_signal(noise_at=(10, 12, 14, 16, 18, 20))
        assert detect_signal(buf, k=6, m=32, threshold=2) == 10

    def test_no_signal_returns_minus_one(self):
        assert detect_signal(np.zeros(100, dtype=int), k=6, m=32, threshold=2) == -1

    def test_threshold_respected(self):
        buf = buffer_with_signal(count=1)
        assert detect_signal(buf, k=6, m=32, threshold=2) == -1
        assert detect_signal(buf, k=6, m=32, threshold=1) == 80

    def test_k_of_m_requirement(self):
        # Exactly 5 hits in a window with k=6: no detection.
        buf = np.zeros(100, dtype=int)
        buf[40:45] = 5
        assert detect_signal(buf, k=6, m=32, threshold=2) == -1
        assert detect_signal(buf, k=5, m=32, threshold=2) == 40

    def test_window_must_start_on_hit(self):
        buf = np.zeros(100, dtype=int)
        buf[50:70] = 5
        # Window starting at 49 has >= k hits, but samples[49] < T.
        assert detect_signal(buf, k=6, m=32, threshold=2) == 50

    def test_signal_at_buffer_start(self):
        buf = buffer_with_signal(start=0)
        assert detect_signal(buf, k=6, m=32, threshold=2) == 0

    def test_signal_at_buffer_end_within_window(self):
        buf = np.zeros(100, dtype=int)
        buf[68:100] = 5
        assert detect_signal(buf, k=6, m=32, threshold=2) == 68

    def test_buffer_shorter_than_window(self):
        assert detect_signal(np.ones(10, dtype=int), k=2, m=32, threshold=1) == -1

    def test_invalid_parameters(self):
        buf = np.zeros(100, dtype=int)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=0, m=32, threshold=2)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=40, m=32, threshold=2)
        with pytest.raises(ValidationError):
            detect_signal(buf, k=6, m=32, threshold=0)
        with pytest.raises(ValidationError):
            detect_signal(np.zeros((2, 50)), k=6, m=32, threshold=2)

    @given(
        start=st.integers(0, 150),
        count=st.integers(2, 15),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_detection_index_satisfies_criterion(self, start, count, seed):
        rng = np.random.default_rng(seed)
        buf = np.zeros(250, dtype=np.int64)
        length = int(rng.integers(35, 80))
        buf[start : start + length] = count
        idx = detect_signal(buf, k=6, m=32, threshold=2)
        assert idx != -1
        window = buf[idx : idx + 32]
        assert buf[idx] >= 2
        assert (window >= 2).sum() >= 6
        # No earlier index satisfies the criterion.
        for s in range(idx):
            w = buf[s : s + 32]
            assert not (buf[s] >= 2 and (w >= 2).sum() >= 6)


class TestDetectAllWindows:
    def test_contiguous_signal_block(self):
        buf = buffer_with_signal(start=80, length=40)
        starts = detect_all_windows(buf, k=6, m=32, threshold=2)
        assert starts[0] == 80
        assert np.all(np.diff(starts) >= 1)

    def test_echo_produces_second_cluster(self):
        buf = np.zeros(400, dtype=int)
        buf[100:140] = 6
        buf[300:340] = 6
        starts = detect_all_windows(buf, k=6, m=32, threshold=2)
        assert 100 in starts
        assert 300 in starts

    def test_empty(self):
        assert detect_all_windows(np.zeros(100, dtype=int), 6, 32, 2).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            detect_all_windows(np.zeros(100), 0, 32, 2)


class TestFirstHit:
    def test_first_index(self):
        assert first_hit(np.array([0, 0, 1, 0, 1])) == 2

    def test_threshold(self):
        assert first_hit(np.array([1, 2, 3]), threshold=3) == 2

    def test_none(self):
        assert first_hit(np.zeros(10, dtype=int)) == -1

    def test_invalid(self):
        with pytest.raises(ValidationError):
            first_hit(np.zeros(10), threshold=0)
        with pytest.raises(ValidationError):
            first_hit(np.zeros((2, 5)))


def _reference_window_starts(samples, k, m, threshold):
    """Window starts of one buffer from a convolution window count."""
    n = samples.shape[0]
    if n < m:
        return np.zeros(0, dtype=np.int64)
    hits = (samples >= threshold).astype(np.int64)
    window_counts = np.convolve(hits, np.ones(m, dtype=np.int64), mode="valid")
    return np.nonzero((window_counts >= k) & (hits[: n - m + 1] == 1))[0]


def _reference_first_hit(samples, threshold):
    hits = np.nonzero(samples >= threshold)[0]
    return int(hits[0]) if hits.size else -1


@st.composite
def _count_stacks(draw):
    """A (rows, n) count stack with window parameters; rows may be all
    zero, n may be below m, and k may equal m."""
    m = draw(st.integers(1, 40))
    k = draw(st.one_of(st.just(m), st.integers(1, m)))
    threshold = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(0, m - 1), st.integers(m, 90)))
    rows = draw(st.integers(0, 5))
    row = st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, 15), min_size=n, max_size=n),
        st.lists(st.sampled_from([0, threshold]), min_size=n, max_size=n),
    )
    stack = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int64)
    return stack.reshape(rows, n), k, m, threshold


class TestRowwiseDetectorMatchesConvolution:
    @given(_count_stacks())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        stack, k, m, threshold = case
        mask = window_starts(stack, k, m, threshold)
        first = detect_signal_rows(stack, k, m, threshold)
        assert first.shape == (stack.shape[0],) and first.dtype == np.int64
        for r, row in enumerate(stack):
            want = _reference_window_starts(row, k, m, threshold)
            np.testing.assert_array_equal(np.nonzero(mask[r])[0], want)
            np.testing.assert_array_equal(detect_all_windows(row, k, m, threshold), want)
            expected = int(want[0]) if want.size else -1
            assert first[r] == expected
            assert detect_signal(row, k, m, threshold) == expected

    @given(_count_stacks())
    @settings(max_examples=100, deadline=None)
    def test_first_hit_matches_reference(self, case):
        stack, _, _, threshold = case
        got = first_hit_rows(stack, threshold)
        for r, row in enumerate(stack):
            assert got[r] == _reference_first_hit(row, threshold)
            assert first_hit(row, threshold) == got[r]

    def test_edge_cases(self):
        zeros = np.zeros((2, 50), dtype=np.int64)
        assert detect_signal_rows(zeros, 6, 32, 2).tolist() == [-1, -1]
        short = np.full((3, 10), 5)
        assert detect_signal_rows(short, 2, 32, 1).tolist() == [-1, -1, -1]
        assert window_starts(short, 2, 32, 1).shape == (3, 0)
        full = np.full((1, 32), 2)
        assert detect_signal_rows(full, 32, 32, 2).tolist() == [0]
        full[0, 31] = 1
        assert detect_signal_rows(full, 32, 32, 2).tolist() == [-1]

    def test_rows_must_be_2d(self):
        with pytest.raises(ValidationError):
            detect_signal_rows(np.zeros(10), 2, 4, 1)
        with pytest.raises(ValidationError):
            first_hit_rows(np.zeros(10))


class TestAccumulateRows:
    def test_sums_and_clips(self):
        streams = np.zeros((2, 20, 4), dtype=bool)
        streams[0, :3, 1] = True
        streams[1, :, 2] = True
        np.testing.assert_array_equal(
            accumulate_rows(streams), [[0, 3, 0, 0], [0, 0, 15, 0]]
        )

    def test_many_chirps_do_not_wrap(self):
        streams = np.ones((1, 256, 3), dtype=bool)  # wraps to 0 in uint8
        assert accumulate_rows(streams).tolist() == [[15, 15, 15]]
