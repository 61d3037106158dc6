"""Tests for the signal-level link simulator (repro.ranging.link)."""

import numpy as np
import pytest

from repro.acoustics import get_environment
from repro.acoustics.hardware import HardwareProfile
from repro.acoustics.noise import NoiseBurstProcess
from repro.errors import ValidationError
from repro.ranging.link import AcousticLinkSimulator, LinkRealization
from repro.ranging.tdoa import TdoaConfig


@pytest.fixture
def sim():
    env = get_environment("grass").with_overrides(
        false_positive_rate=0.0,
        noise_burst_rate_hz=0.0,
    )
    simulator = AcousticLinkSimulator(environment=env)
    simulator.long_noise_probability = 0.0
    return simulator


CLEAN_LINK = LinkRealization(link_gain_db=0.0, has_echo=False)


class TestBufferGeometry:
    def test_buffer_length(self, sim):
        counts = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=0)
        assert counts.shape[0] == sim.tdoa.buffer_length

    def test_counts_bounded_by_chirps(self, sim):
        counts = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=0)
        assert counts.max() <= sim.pattern.num_chirps
        assert counts.min() >= 0

    def test_signal_lands_at_expected_index(self, sim):
        distance = 8.0
        counts = sim.simulate_counts(distance, link=CLEAN_LINK, rng=1)
        expected = sim.tdoa.index_from_distance(distance)
        chirp_len = sim.pattern.chirp_samples(sim.tdoa.sampling_rate_hz)
        window = counts[expected - 8 : expected + chirp_len + 8]
        assert window.sum() > 0
        # Nothing before the arrival (no noise in this fixture).
        assert counts[: expected - 8].sum() == 0

    def test_out_of_buffer_distance_empty(self, sim):
        counts = sim.simulate_counts(100.0, link=CLEAN_LINK, rng=0)
        assert counts.sum() == 0

    def test_negative_distance_rejected(self, sim):
        with pytest.raises(Exception):
            sim.simulate_counts(-1.0, link=CLEAN_LINK)


class TestSnrBehaviour:
    def test_snr_decreases_with_distance(self, sim):
        hw = HardwareProfile()
        snr_near = sim.link_snr_db(5.0, hw, hw, CLEAN_LINK)
        snr_far = sim.link_snr_db(18.0, hw, hw, CLEAN_LINK)
        assert snr_near > snr_far

    def test_unit_gains_add(self, sim):
        hw = HardwareProfile()
        loud = HardwareProfile(speaker_gain_db=5.0)
        base = sim.link_snr_db(10.0, hw, hw, CLEAN_LINK)
        boosted = sim.link_snr_db(10.0, loud, hw, CLEAN_LINK)
        assert boosted == pytest.approx(base + 5.0)

    def test_link_gain_applied(self, sim):
        hw = HardwareProfile()
        attenuated = LinkRealization(link_gain_db=-10.0)
        base = sim.link_snr_db(10.0, hw, hw, CLEAN_LINK)
        shadowed = sim.link_snr_db(10.0, hw, hw, attenuated)
        assert shadowed == pytest.approx(base - 10.0)

    def test_weak_signal_fewer_detections(self, sim):
        rng = np.random.default_rng(0)
        strong = sim.simulate_counts(5.0, link=CLEAN_LINK, rng=rng).sum()
        weak = sim.simulate_counts(
            5.0, link=LinkRealization(link_gain_db=-28.0), rng=rng
        ).sum()
        assert weak < strong


class TestErrorSources:
    def test_faulty_receiver_raises_floor(self, sim):
        rng = np.random.default_rng(0)
        faulty = HardwareProfile(faulty=True)
        counts = sim.simulate_counts(
            100.0, receiver_hw=faulty, link=CLEAN_LINK, rng=rng
        )
        # No signal in buffer, yet the faulty detector fires anyway.
        assert counts.sum() > 0

    def test_echo_adds_second_arrival(self, sim):
        rng = np.random.default_rng(3)
        echo = LinkRealization(
            link_gain_db=5.0, has_echo=True, echo_delay_s=0.02
        )
        distance = 5.0
        fs = sim.tdoa.sampling_rate_hz
        chirp_len = sim.pattern.chirp_samples(fs)
        arrival = sim.tdoa.index_from_distance(distance)
        echo_start = arrival + int(0.02 * fs)
        counts = sim.simulate_counts(distance, link=echo, rng=rng)
        gap = counts[arrival + chirp_len + 16 : echo_start - 16]
        echo_zone = counts[echo_start : echo_start + chirp_len]
        assert echo_zone.sum() > gap.sum()

    def test_long_noise_floods_buffer(self, sim):
        sim.long_noise_probability = 1.0
        rng = np.random.default_rng(0)
        counts = sim.simulate_counts(100.0, link=CLEAN_LINK, rng=rng)
        # Elevated false positives across the whole buffer.
        assert counts.sum() > 20

    def test_latency_bias_shifts_arrival(self, sim):
        slow = HardwareProfile(latency_bias_s=0.005)  # ~80 samples
        counts_norm = sim.simulate_counts(8.0, link=CLEAN_LINK, rng=0)
        counts_slow = sim.simulate_counts(
            8.0, source_hw=slow, link=CLEAN_LINK, rng=0
        )
        first_norm = np.nonzero(counts_norm)[0][0]
        first_slow = np.nonzero(counts_slow)[0][0]
        assert first_slow > first_norm + 40


class TestDrawLink:
    def test_echo_probability_zero(self):
        env = get_environment("grass").with_overrides(echo_probability=0.0)
        no_echo_sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(0)
        links = [no_echo_sim.draw_link(rng) for _ in range(50)]
        assert not any(l.has_echo for l in links)

    def test_echo_probability_one(self):
        env = get_environment("urban").with_overrides(echo_probability=1.0)
        sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(0)
        link = sim.draw_link(rng)
        assert link.has_echo
        lo, hi = env.echo_delay_range_s
        assert lo <= link.echo_delay_s <= hi

    def test_gain_variance_matches_environment(self):
        env = get_environment("grass")
        sim = AcousticLinkSimulator(environment=env)
        rng = np.random.default_rng(1)
        gains = np.array([sim.draw_link(rng).link_gain_db for _ in range(500)])
        assert abs(gains.std() - env.ground_variation_db) < 1.0


class TestDeterminism:
    def test_same_seed_same_buffer(self, sim):
        a = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=42)
        b = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=42)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, sim):
        a = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=1)
        b = sim.simulate_counts(7.0, link=CLEAN_LINK, rng=2)
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Block evaluation against a one-chirp-at-a-time reference
# ---------------------------------------------------------------------------


def _reference_track(bursts, n, fs, base_rate, rng):
    """False-positive track of one chirp, drawn and built burst by burst."""
    track = np.full(n, base_rate)
    if bursts.rate_hz == 0.0 or n == 0:
        return track
    window_s = n / fs
    for _ in range(int(rng.poisson(bursts.rate_hz * window_s))):
        start_s = rng.uniform(0.0, window_s)
        length_s = rng.exponential(bursts.duration_s)
        start = int(start_s * fs)
        stop = min(n, start + max(1, int(length_s * fs)))
        track[start:stop] = max(base_rate, bursts.fp_rate)
    return track


def _reference_add_signal(p, arrival, p_hit, ramp):
    """Mix one chirp into the track *p* by slicing its in-buffer part."""
    n = p.shape[0]
    start = int(round(arrival))
    if start >= n:
        return
    chirp_len = ramp.shape[0]
    lo = max(0, start)
    hi = min(n, start + chirp_len)
    if hi <= lo:
        return
    segment = ramp[lo - start : hi - start] * p_hit
    p[lo:hi] = 1.0 - (1.0 - p[lo:hi]) * (1.0 - segment)


def _reference_counts(sim, distance_m, source_hw, receiver_hw, link, num_chirps, rng):
    """One attempt's count buffer, simulated one chirp at a time."""
    n = sim.tdoa.buffer_length
    fs = sim.tdoa.sampling_rate_hz
    chirp_len = sim.pattern.chirp_samples(fs)
    snr = sim.link_snr_db(distance_m, source_hw, receiver_hw, link)
    p_hit = float(sim.detector.hit_probability(snr))
    if receiver_hw.faulty:
        p_hit *= sim.faulty_hit_scale
    base_fp = sim.environment.false_positive_rate
    if receiver_hw.faulty:
        base_fp = max(base_fp, sim.faulty_fp_rate)
    if rng.random() < sim.long_noise_probability:
        base_fp = max(base_fp, sim.long_noise_fp_rate)
    latency_s = source_hw.latency_bias_s + receiver_hw.latency_bias_s
    nominal = distance_m / sim.tdoa.meters_per_sample + latency_s * fs
    ramp = np.minimum(1.0, np.arange(1, chirp_len + 1, dtype=float) / sim.ramp_samples)
    bursts = NoiseBurstProcess.from_environment(sim.environment)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(num_chirps):
        p = _reference_track(bursts, n, fs, base_fp, rng)
        arrival = nominal + rng.normal(0.0, sim.timing_jitter_samples)
        _reference_add_signal(p, arrival, p_hit, ramp)
        if link.has_echo:
            echo_arrival = arrival + link.echo_delay_s * fs
            _reference_add_signal(p, echo_arrival, p_hit * sim.environment.echo_strength, ramp)
        counts += (rng.random(n) < p).astype(np.int64)
    return np.minimum(counts, 15)


#: Receiver/source hardware and links covering every branch of the
#: evaluate step: faulty receivers, echoes overlapping the direct window
#: (3 ms = 48 samples < one 128-sample chirp) or far from it, arrivals
#: past the buffer end, and arrivals partly or wholly before sample 0.
_EARLY = HardwareProfile(latency_bias_s=-0.004)  # 1 m arrives at ~ -17 samples
_VERY_EARLY = HardwareProfile(latency_bias_s=-0.05)  # ~ -800 samples
_FAULTY = HardwareProfile(faulty=True, mic_gain_db=-2.0)
_OVERLAP = LinkRealization(link_gain_db=3.0, has_echo=True, echo_delay_s=0.003)
_FAR_ECHO = LinkRealization(link_gain_db=-1.0, has_echo=True, echo_delay_s=0.04)
_ATTEMPTS = [
    (5.0, HardwareProfile(), HardwareProfile(), _OVERLAP),
    (8.0, HardwareProfile(), _FAULTY, CLEAN_LINK),
    (1.0, _EARLY, HardwareProfile(), _OVERLAP),
    (1.0, _VERY_EARLY, HardwareProfile(), CLEAN_LINK),
    (1.0, _VERY_EARLY, HardwareProfile(), _FAR_ECHO),
    (24.5, HardwareProfile(), HardwareProfile(), _FAR_ECHO),
    (60.0, HardwareProfile(), _FAULTY, _OVERLAP),
    (12.0, HardwareProfile(speaker_gain_db=4.0), HardwareProfile(), _FAR_ECHO),
    (0.0, HardwareProfile(), HardwareProfile(), CLEAN_LINK),
]


class TestBlockMatchesReference:
    """A block's count buffers are bit-equal to simulating its attempts
    one chirp at a time from the same generator, which ends in the same
    state: the draw step keeps the reference's stream order."""

    @pytest.fixture(
        params=[
            {},
            {"long_noise_probability": 1.0},
            {"long_noise_probability": 0.5, "timing_jitter_samples": 0.0},
            {"burst_heavy": True},
        ],
        ids=["urban", "forced-long-noise", "no-jitter", "burst-heavy"],
    )
    def simulator(self, request):
        settings = dict(request.param)
        env = get_environment("urban")
        if settings.pop("burst_heavy", False):
            env = env.with_overrides(
                noise_burst_rate_hz=120.0, noise_burst_duration_s=0.004, noise_burst_fp_rate=0.6
            )
        return AcousticLinkSimulator(environment=env, **settings)

    @pytest.mark.parametrize("num_chirps", [10, 1, 3])
    def test_counts_bit_equal(self, simulator, num_chirps):
        for seed in (0, 1, 2):
            ref_rng = np.random.default_rng(seed)
            expected = [
                _reference_counts(simulator, d, s, r, link, num_chirps, ref_rng)
                for d, s, r, link in _ATTEMPTS
            ]
            rng = np.random.default_rng(seed)
            block = simulator.block(len(_ATTEMPTS), num_chirps)
            for d, s, r, link in _ATTEMPTS:
                block.draw(d, source_hw=s, receiver_hw=r, link=link, rng=rng)
            counts = block.counts()
            assert counts.dtype == np.int64
            assert counts.shape == (len(_ATTEMPTS), simulator.tdoa.buffer_length)
            for row, want in zip(counts, expected):
                np.testing.assert_array_equal(row, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_cleared_block_is_reused(self, simulator):
        block = simulator.block(3)
        rng = np.random.default_rng(9)
        for d, s, r, link in _ATTEMPTS[:3]:
            block.draw(d, source_hw=s, receiver_hw=r, link=link, rng=rng)
        block.counts()
        block.clear()
        ref_rng = np.random.default_rng(5)
        rng = np.random.default_rng(5)
        d, s, r, link = _ATTEMPTS[2]
        block.draw(d, source_hw=s, receiver_hw=r, link=link, rng=rng)
        want = _reference_counts(simulator, d, s, r, link, block.num_chirps, ref_rng)
        assert len(block) == 1
        np.testing.assert_array_equal(block.counts()[0], want)

    def test_link_drawn_when_missing(self, simulator):
        ref_rng = np.random.default_rng(3)
        link = simulator.draw_link(ref_rng)
        want = _reference_counts(
            simulator, 6.0, HardwareProfile(), HardwareProfile(), link, 10, ref_rng
        )
        got = simulator.simulate_counts(6.0, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, want)

    def test_full_block_rejected(self, simulator):
        block = simulator.block(1)
        block.draw(5.0, link=CLEAN_LINK, rng=0)
        with pytest.raises(ValidationError):
            block.draw(5.0, link=CLEAN_LINK, rng=0)

    def test_empty_block(self, simulator):
        assert simulator.block(4).counts().shape == (0, simulator.tdoa.buffer_length)
