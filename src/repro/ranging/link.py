"""Signal-level simulation of one acoustic ranging link.

This module generates the binary tone-detector buffers that the
detection algorithms of :mod:`repro.ranging.detection` consume.  For a
directed link (source chirps, receiver listens) it reproduces, at the
level of individual 16 kHz detector samples, every error source the
paper enumerates in Section 3.4:

1. *Timing effects* — per-chirp arrival jitter (sync + sampling
   granularity).
2. *Non-deterministic delays in acoustic devices* — speaker power-up
   ramp at the start of each chirp (the reason chirps below 8 ms stopped
   working) and per-node constant latency bias.
3. *Unit-to-unit variation* — speaker/microphone gain offsets and the
   occasional faulty unit, via :class:`~repro.acoustics.hardware.HardwareProfile`.
4. *Signal attenuation* — spherical spreading + environment excess
   attenuation + a persistent per-link ground-cover gain.
5. *Noise* — a stationary false-positive floor plus short impulsive
   bursts (independent across chirps) and rare long events (aircraft)
   that stay elevated across all chirps of a measurement.
6. *Echoes* — persistent multipath arrivals at a delayed offset.
7. *Unreliable tone detection* — the binary detector's saturation < 1
   and SNR-dependent miss rate.

Simulation is split into a **draw** step and an **evaluate** step, both
on :class:`ChirpBlock`, a preallocated block of directed attempts that
all send the same number of chirps:

* :meth:`ChirpBlock.draw` adds one attempt and consumes the generator in
  a fixed *stream order*: the link realization when the caller has none
  (``draw_link``), the long-noise draw, then per chirp the burst count
  (``poisson``), each burst's start and length (``uniform``,
  ``exponential``), the arrival jitter (one standard normal, the draw
  ``normal`` makes), and the buffer's per-sample uniforms, written by
  ``rng.random(out=row)`` straight into the block.  This is the order of the original one-chirp-at-a-time
  simulator, so a campaign's measurements do not depend on how its
  attempts are grouped into blocks.
* :meth:`ChirpBlock.counts` consumes no randomness.  For all
  ``attempts x chirps`` rows at once it builds the false-positive
  tracks (the base rate, then burst overwrites), mixes each chirp into
  its track as ``1 - (1 - p)(1 - ramp * p_hit)`` inside the
  ``chirp_len``-wide arrival window only (the direct path first, then
  the echo on the updated track), compares the uniforms against the
  tracks and sums each attempt's chirps, clipped at 15.

A block holds one source's receivers in a campaign round (at most
``(n_nodes - 1) x chirps`` rows; a few megabytes for a 16-node grid),
never a whole campaign.
:meth:`AcousticLinkSimulator.simulate_counts` is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .._validation import check_non_negative, check_probability, ensure_rng
from ..acoustics.environment import Environment
from ..acoustics.hardware import HardwareProfile
from ..acoustics.noise import NoiseBurstProcess
from ..acoustics.propagation import LOUD_SPEAKER_SOURCE_LEVEL_DB, snr_db
from ..acoustics.signal import ChirpPattern
from ..acoustics.tone_detector import ToneDetectorModel
from ..errors import ValidationError
from .detection import accumulate_rows
from .tdoa import TdoaConfig

__all__ = ["LinkRealization", "AcousticLinkSimulator", "ChirpBlock"]


@dataclass(frozen=True)
class LinkRealization:
    """Persistent characteristics of one (undirected) acoustic link.

    Drawn once per node pair and reused across measurement rounds, so
    link-specific effects (a patch of tall grass, a wall reflecting an
    echo) are *correlated across rounds* — the property that decides
    which filtering technique can remove which error (Section 3.4).
    """

    link_gain_db: float = 0.0
    has_echo: bool = False
    echo_delay_s: float = 0.0


@dataclass
class AcousticLinkSimulator:
    """Generates binary detector buffers for directed ranging attempts.

    Parameters
    ----------
    environment : Environment
        Acoustic environment preset.
    pattern : ChirpPattern
        The emitted chirp pattern (defaults to the paper's 10 x 8 ms).
    detector : ToneDetectorModel
        The binary tone-detector response curve.
    tdoa : TdoaConfig
        Buffer geometry and unit conversions.
    source_level_db : float
        Speaker output power (105 dB for the extended board).
    timing_jitter_samples : float
        Std of per-chirp arrival jitter, in detector samples.
    ramp_samples : int
        Speaker power-up ramp: hit probability scales linearly from
        ~1/ramp to 1 over the first ``ramp_samples`` of each chirp.
        The default (64 samples = 4 ms at 16 kHz) encodes the paper's
        observation that chirps shorter than 8 ms "did not have enough
        time to fully power up" — a 4 ms chirp never reaches full
        output, an 8 ms chirp spends half its length at full power.
    long_noise_probability : float
        Probability that a measurement happens during a long wide-band
        noise event (aircraft overhead) raising the false-positive rate
        for *all* chirps.
    long_noise_fp_rate : float
        Per-sample false-positive probability during such an event.
    faulty_fp_rate : float
        False-positive floor of a faulty receiver unit.
    faulty_hit_scale : float
        Multiplier on hit probability for faulty units.
    """

    environment: Environment
    pattern: ChirpPattern = field(default_factory=ChirpPattern)
    detector: ToneDetectorModel = field(default_factory=ToneDetectorModel)
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)
    source_level_db: float = LOUD_SPEAKER_SOURCE_LEVEL_DB
    timing_jitter_samples: float = 1.5
    ramp_samples: int = 64
    long_noise_probability: float = 0.03
    long_noise_fp_rate: float = 0.05
    faulty_fp_rate: float = 0.04
    faulty_hit_scale: float = 0.4

    def __post_init__(self):
        check_non_negative(self.timing_jitter_samples, "timing_jitter_samples")
        if self.ramp_samples < 1:
            raise ValueError("ramp_samples must be >= 1")
        check_probability(self.long_noise_probability, "long_noise_probability")
        check_probability(self.long_noise_fp_rate, "long_noise_fp_rate")
        check_probability(self.faulty_fp_rate, "faulty_fp_rate")
        check_non_negative(self.faulty_hit_scale, "faulty_hit_scale")
        self._bursts = NoiseBurstProcess.from_environment(self.environment)

    # ------------------------------------------------------------------
    # Link construction
    # ------------------------------------------------------------------

    def draw_link(self, rng=None) -> LinkRealization:
        """Draw the persistent realization for one undirected link."""
        rng = ensure_rng(rng)
        lo, hi = self.environment.echo_delay_range_s
        has_echo = bool(rng.random() < self.environment.echo_probability)
        return LinkRealization(
            link_gain_db=float(rng.normal(0.0, self.environment.ground_variation_db)),
            has_echo=has_echo,
            echo_delay_s=float(rng.uniform(lo, hi)) if has_echo else 0.0,
        )

    def link_snr_db(
        self,
        distance_m: float,
        source_hw: HardwareProfile,
        receiver_hw: HardwareProfile,
        link: LinkRealization,
    ) -> float:
        """SNR at the receiver for this link."""
        return float(
            self._snr_db(
                distance_m,
                source_hw.speaker_gain_db + receiver_hw.mic_gain_db,
                link.link_gain_db,
            )
        )

    def _snr_db(self, distance_m, unit_gain_db, link_gain_db):
        """SNR from per-attempt scalars or equal-length arrays."""
        return snr_db(
            distance_m,
            self.environment,
            source_level_db=self.source_level_db,
            unit_gain_db=unit_gain_db,
            link_gain_db=link_gain_db,
        )

    # ------------------------------------------------------------------
    # Buffer simulation
    # ------------------------------------------------------------------

    def block(self, capacity: int, num_chirps: Optional[int] = None) -> "ChirpBlock":
        """An empty :class:`ChirpBlock` for up to *capacity* attempts of
        *num_chirps* chirps each (default: the pattern's count)."""
        if num_chirps is None:
            num_chirps = self.pattern.num_chirps
        return ChirpBlock(self, capacity, num_chirps)

    def simulate_counts(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile] = None,
        receiver_hw: Optional[HardwareProfile] = None,
        link: Optional[LinkRealization] = None,
        num_chirps: Optional[int] = None,
        rng=None,
    ) -> np.ndarray:
        """Simulate one measurement's accumulated count buffer.

        Each chirp is generated as an independent binary stream (the
        service re-synchronizes per chirp) and the streams are summed,
        mirroring ``record-signal``.  Returns the int64 count buffer of
        length ``tdoa.buffer_length``.  A block of one attempt.
        """
        block = self.block(1, num_chirps)
        block.draw(
            distance_m,
            source_hw=source_hw,
            receiver_hw=receiver_hw,
            link=link,
            rng=rng,
        )
        return block.counts()[0]


class ChirpBlock:
    """Random draws of a block of directed attempts, and their buffers.

    Fill it with :meth:`draw` (one call per attempt, in campaign order),
    turn it into count buffers with :meth:`counts`, and :meth:`clear` it
    to reuse the preallocated arrays for the next block.

    Parameters
    ----------
    simulator : AcousticLinkSimulator
        The link model, read when attempts are drawn and evaluated.
    capacity : int
        Maximum number of attempts in the block.
    num_chirps : int
        Chirps per attempt (1 for the baseline service).
    """

    def __init__(self, simulator: AcousticLinkSimulator, capacity: int, num_chirps: int):
        if capacity < 0 or num_chirps < 0:
            raise ValidationError("capacity and num_chirps must be non-negative")
        self.simulator = simulator
        self.capacity = int(capacity)
        self.num_chirps = int(num_chirps)
        fs = simulator.tdoa.sampling_rate_hz
        self._n = simulator.tdoa.buffer_length
        self._chirp_len = simulator.pattern.chirp_samples(fs)
        # Speaker power-up ramp over the first ramp_samples of a chirp.
        self._ramp = np.minimum(
            1.0, np.arange(1, self._chirp_len + 1, dtype=float) / simulator.ramp_samples
        )
        self._burst_intervals = simulator._bursts.interval_sampler(self._n, fs)
        # Draws, and the evaluate step's work arrays, are allocated once
        # and reused by every block the instance evaluates.
        rows = self.capacity * self.num_chirps
        self._uniforms = np.empty((rows, self._n))
        self._jitter = np.empty((self.capacity, self.num_chirps))
        self._track = np.empty((rows, self._n + 2 * self._chirp_len))
        self._hits = np.empty((rows, self._n), dtype=bool)
        self._window_index = np.empty((rows, self._chirp_len), dtype=np.intp)
        self._window = np.empty((rows, self._chirp_len))
        self._segment = np.empty((rows, self._chirp_len))
        self.clear()

    def __len__(self) -> int:
        return len(self._distance)

    def clear(self) -> None:
        """Forget every drawn attempt (the arrays are kept for reuse)."""
        self._distance = []
        self._unit_gain_db = []
        self._link_gain_db = []
        self._faulty = []
        self._base_fp = []
        self._nominal = []
        self._has_echo = []
        self._echo_offset = []
        self._bursts = []

    def draw(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile] = None,
        receiver_hw: Optional[HardwareProfile] = None,
        link: Optional[LinkRealization] = None,
        rng=None,
    ) -> None:
        """Add one directed attempt, drawing its randomness in stream order."""
        check_non_negative(distance_m, "distance_m")
        index = len(self)
        if index >= self.capacity:
            raise ValidationError(f"block is full ({self.capacity} attempts)")
        sim = self.simulator
        rng = ensure_rng(rng)
        source_hw = source_hw if source_hw is not None else HardwareProfile()
        receiver_hw = receiver_hw if receiver_hw is not None else HardwareProfile()
        link = link if link is not None else sim.draw_link(rng)

        base_fp = sim.environment.false_positive_rate
        if receiver_hw.faulty:
            base_fp = max(base_fp, sim.faulty_fp_rate)
        # A long noise event (e.g. aircraft) covers the entire
        # measurement: all chirps see the elevated floor.
        if rng.random() < sim.long_noise_probability:
            base_fp = max(base_fp, sim.long_noise_fp_rate)

        fs = sim.tdoa.sampling_rate_hz
        # Latency biases shift the arrival by a constant per node pair.
        latency_s = source_hw.latency_bias_s + receiver_hw.latency_bias_s
        self._distance.append(distance_m)
        self._unit_gain_db.append(source_hw.speaker_gain_db + receiver_hw.mic_gain_db)
        self._link_gain_db.append(link.link_gain_db)
        self._faulty.append(receiver_hw.faulty)
        self._base_fp.append(base_fp)
        self._nominal.append(distance_m / sim.tdoa.meters_per_sample + latency_s * fs)
        self._has_echo.append(link.has_echo)
        self._echo_offset.append(link.echo_delay_s * fs)

        first_row = index * self.num_chirps
        uniforms = self._uniforms[first_row : first_row + self.num_chirps]
        jitter = self._jitter[index]
        jitter_sd = sim.timing_jitter_samples
        for chirp in range(self.num_chirps):
            for start, stop in self._burst_intervals(rng):
                self._bursts.append((first_row + chirp, start, stop))
            # numpy's normal(0, sd) is 0 + sd * standard_normal(): the
            # same draw and the same arrival, without the call overhead.
            jitter[chirp] = jitter_sd * rng.standard_normal()
            rng.random(out=uniforms[chirp])

    def _hit_probabilities(self) -> np.ndarray:
        """Per-attempt detector hit probability of the direct path."""
        sim = self.simulator
        snr = sim._snr_db(
            np.asarray(self._distance, dtype=float),
            np.asarray(self._unit_gain_db, dtype=float),
            np.asarray(self._link_gain_db, dtype=float),
        )
        p_hit = np.asarray(sim.detector.hit_probability(snr), dtype=float)
        faulty = np.asarray(self._faulty, dtype=bool)
        p_hit[faulty] *= sim.faulty_hit_scale
        return p_hit

    def counts(self) -> np.ndarray:
        """The int64 ``(attempts, buffer_length)`` count buffers of the
        drawn attempts, clipped at 15.  Consumes no randomness."""
        attempts, chirps, n = len(self), self.num_chirps, self._n
        rows = attempts * chirps
        pad = self._chirp_len
        # Tracks carry chirp_len samples of padding on both sides, so a
        # window clipped into [-chirp_len, n] never needs bounds checks;
        # whatever lands in the padding is discarded.
        track = self._track[:rows]
        base_fp = np.repeat(np.asarray(self._base_fp, dtype=float), chirps)
        track[:] = base_fp[:, None]
        if self._bursts:
            burst_row, start, stop = np.asarray(self._bursts, dtype=np.int64).T
            level = np.maximum(base_fp[burst_row], self.simulator._bursts.fp_rate)
            length = stop - start
            offset = np.repeat(np.cumsum(length) - length, length)
            cols = np.arange(length.sum()) - offset + np.repeat(start + pad, length)
            track[np.repeat(burst_row, length), cols] = np.repeat(level, length)

        arrival = np.asarray(self._nominal, dtype=float)[:, None] + self._jitter[:attempts]
        p_hit = self._hit_probabilities()
        self._mix(track, np.arange(rows), arrival.ravel(), np.repeat(p_hit, chirps))
        echo = np.asarray(self._has_echo, dtype=bool)
        if echo.any():
            offset = np.asarray(self._echo_offset, dtype=float)[echo]
            echo_rows = np.flatnonzero(np.repeat(echo, chirps))
            echo_arrival = arrival[echo] + offset[:, None]
            echo_p = p_hit[echo] * self.simulator.environment.echo_strength
            self._mix(track, echo_rows, echo_arrival.ravel(), np.repeat(echo_p, chirps))

        hits = np.less(self._uniforms[:rows], track[:, pad : pad + n], out=self._hits[:rows])
        return accumulate_rows(hits.reshape(attempts, chirps, n))

    def _mix(self, track, rows, arrival, p_hit) -> None:
        """Mix each row's chirp into its track inside the arrival window.

        Combination is complementary (``1 - (1-p_noise)(1-p_signal)``):
        noise and signal are independent chances of the detector firing.
        Works in place in the preallocated window arrays.
        """
        pad, n, k = self._chirp_len, self._n, len(rows)
        start = np.clip(np.rint(arrival), -pad, n).astype(np.int64) + pad
        index = self._window_index[:k]
        np.add((rows * track.shape[1] + start)[:, None], np.arange(pad), out=index)
        flat = track.reshape(-1)
        noise = np.take(flat, index, out=self._window[:k])
        signal = np.multiply(self._ramp, p_hit[:, None], out=self._segment[:k])
        np.subtract(1.0, noise, out=noise)
        np.subtract(1.0, signal, out=signal)
        np.multiply(noise, signal, out=noise)
        flat[index] = np.subtract(1.0, noise, out=noise)
