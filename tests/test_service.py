"""Tests for the ranging service (repro.ranging.service)."""

import numpy as np
import pytest

from repro.acoustics import ChirpPattern, get_environment
from repro.acoustics.hardware import HardwareProfile
from repro.errors import CalibrationError, ValidationError
from repro.ranging.link import AcousticLinkSimulator, LinkRealization
from repro.ranging.service import DetectionParams, RangingService
from repro.ranging.tdoa import TdoaConfig

CLEAN_LINK = LinkRealization(link_gain_db=0.0)


@pytest.fixture(scope="module")
def grass_service():
    return RangingService(environment=get_environment("grass")).calibrate(rng=0)


class TestDetectionParams:
    def test_paper_defaults(self):
        params = DetectionParams()
        assert params.threshold == 2
        assert params.k == 6
        assert params.m == 32

    def test_invalid(self):
        with pytest.raises(ValidationError):
            DetectionParams(threshold=0)
        with pytest.raises(ValidationError):
            DetectionParams(k=40, m=32)


class TestServiceConstruction:
    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            RangingService(environment=get_environment("grass"), mode="fancy")

    def test_link_simulator_built(self):
        service = RangingService(environment=get_environment("grass"))
        assert service.link_simulator is not None
        assert service.link_simulator.environment.name == "grass"


class TestMeasure:
    def test_accurate_at_short_range(self, grass_service):
        rng = np.random.default_rng(1)
        estimates = [
            grass_service.measure(6.0, link=CLEAN_LINK, rng=rng) for _ in range(20)
        ]
        estimates = [e for e in estimates if e is not None]
        assert len(estimates) >= 18
        errors = np.abs(np.array(estimates) - 6.0)
        assert np.median(errors) < 0.35

    def test_none_far_out_of_range(self, grass_service):
        rng = np.random.default_rng(2)
        svc = grass_service
        # Disable impulsive noise so out-of-range truly yields None.
        svc.link_simulator.long_noise_probability = 0.0
        try:
            results = [svc.measure(60.0, link=CLEAN_LINK, rng=rng) for _ in range(10)]
        finally:
            svc.link_simulator.long_noise_probability = 0.03
        assert all(r is None for r in results)

    def test_estimates_non_negative(self, grass_service):
        rng = np.random.default_rng(3)
        for d in (2.0, 9.0, 15.0):
            est = grass_service.measure(d, link=CLEAN_LINK, rng=rng)
            if est is not None:
                assert est >= 0.0

    def test_baseline_mode_runs(self):
        service = RangingService(
            environment=get_environment("urban"), mode="baseline"
        )
        rng = np.random.default_rng(4)
        estimates = [
            service.measure(8.0, link=CLEAN_LINK, rng=rng) for _ in range(10)
        ]
        assert any(e is not None for e in estimates)

    def test_baseline_noisier_than_refined(self):
        env = get_environment("urban")
        rng = np.random.default_rng(5)
        baseline = RangingService(environment=env, mode="baseline").calibrate(rng=rng)
        refined = RangingService(environment=env).calibrate(rng=rng)

        def large_error_rate(service):
            errors = []
            for d in np.linspace(5, 20, 16):
                for _ in range(6):
                    link = service.link_simulator.draw_link(rng)
                    est = service.measure(float(d), link=link, rng=rng)
                    if est is not None:
                        errors.append(abs(est - d))
            errors = np.array(errors)
            return (errors > 1.0).mean()

        assert large_error_rate(baseline) > large_error_rate(refined)


class TestDetectionProbability:
    def test_high_at_close_range(self, grass_service):
        p = grass_service.detection_probability(6.0, attempts=20, rng=0)
        assert p >= 0.9

    def test_low_beyond_range(self, grass_service):
        p = grass_service.detection_probability(40.0, attempts=20, within_m=3.0, rng=0)
        assert p <= 0.1

    def test_within_filter_stricter(self, grass_service):
        rng = np.random.default_rng(6)
        loose = grass_service.detection_probability(18.0, attempts=40, rng=rng)
        strict = grass_service.detection_probability(
            18.0, attempts=40, within_m=0.5, rng=rng
        )
        assert strict <= loose + 0.15

    def test_invalid_attempts(self, grass_service):
        with pytest.raises(ValidationError):
            grass_service.detection_probability(5.0, attempts=0)


class TestCalibration:
    def test_reduces_bias(self):
        raw = RangingService(environment=get_environment("grass"))
        calibrated = raw.calibrate(rng=0)
        rng = np.random.default_rng(7)

        def bias(service):
            errors = []
            for _ in range(40):
                est = service.measure(8.0, link=CLEAN_LINK, rng=rng)
                if est is not None:
                    errors.append(est - 8.0)
            return abs(float(np.median(errors)))

        assert bias(calibrated) <= bias(raw) + 0.02

    def test_offset_in_paper_band(self):
        # "A constant offset of 10-20 cm may be added to every ranging
        # measurement" without calibration.
        calibrated = RangingService(environment=get_environment("grass")).calibrate(rng=0)
        assert 0.0 <= calibrated.tdoa.calibration_offset_m <= 0.4

    def test_hostile_environment_raises(self):
        env = get_environment("grass").with_overrides(
            excess_attenuation_db_per_m=30.0,
            false_positive_rate=0.0,
            noise_burst_rate_hz=0.0,
        )
        service = RangingService(environment=env)
        service.link_simulator.long_noise_probability = 0.0
        with pytest.raises(CalibrationError):
            service.calibrate(distances_m=(15.0, 20.0), rounds=2, rng=0)

    def test_returns_new_service(self):
        raw = RangingService(environment=get_environment("grass"))
        calibrated = raw.calibrate(rng=0)
        assert calibrated is not raw
        assert raw.tdoa.calibration_offset_m == 0.0

    def test_keeps_custom_link_simulator(self):
        env = get_environment("grass")
        custom = AcousticLinkSimulator(
            environment=env, ramp_samples=8, timing_jitter_samples=0.0
        )
        raw = RangingService(environment=env, link_simulator=custom)
        calibrated = raw.calibrate(rng=0)
        sim = calibrated.link_simulator
        assert sim.ramp_samples == 8
        assert sim.timing_jitter_samples == 0.0
        assert sim.tdoa == calibrated.tdoa
        assert calibrated.tdoa.calibration_offset_m != 0.0
        assert raw.link_simulator is custom and custom.tdoa == raw.tdoa


class TestBlocks:
    def test_estimates_match_one_at_a_time_measures(self, grass_service):
        hw = HardwareProfile(latency_bias_s=-2e-4)
        distances = [3.0, 9.5, 17.0, 30.0]
        one_rng = np.random.default_rng(11)
        singles = [
            grass_service.measure(d, receiver_hw=hw, link=CLEAN_LINK, rng=one_rng)
            for d in distances
        ]
        block_rng = np.random.default_rng(11)
        block = grass_service.block(len(distances))
        for d in distances:
            block.draw(d, receiver_hw=hw, link=CLEAN_LINK, rng=block_rng)
        assert grass_service.estimates(block) == singles
        assert block_rng.bit_generator.state == one_rng.bit_generator.state

    def test_baseline_block_sends_one_chirp(self):
        service = RangingService(environment=get_environment("urban"), mode="baseline")
        assert service.block(3).num_chirps == 1

    def test_detection_probability_spans_several_blocks(self, grass_service):
        from repro.ranging.service import BLOCK_ATTEMPTS

        attempts = BLOCK_ATTEMPTS + 5
        rng = np.random.default_rng(4)
        p = grass_service.detection_probability(6.0, attempts=attempts, rng=rng)
        one = np.random.default_rng(4)
        hits = 0
        for _ in range(attempts):
            link = grass_service.link_simulator.draw_link(one)
            hits += grass_service.measure(6.0, link=link, rng=one) is not None
        assert p == hits / attempts
        assert rng.bit_generator.state == one.bit_generator.state

    def test_counters_count_attempts_and_detections(self, grass_service):
        from repro import telemetry

        with telemetry.recording() as rec:
            estimates = [
                grass_service.measure(d, link=CLEAN_LINK, rng=3) for d in (5.0, 90.0)
            ]
        assert rec.counters["ranging.attempts"] == 2
        assert rec.counters["ranging.detections"] == sum(
            e is not None for e in estimates
        )
