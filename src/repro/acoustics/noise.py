"""Impulsive ambient-noise model.

Beyond the stationary noise floor (part of the SNR model), the paper's
field sites had *impulsive* wide-band noise: "birds' chirping, wind
noise, footsteps" (Section 3.5) and "occasional loud aircraft engine
noise" (Section 3.6).  Such events raise the tone detector's
false-positive probability for their duration and — crucially — are
*uncorrelated across ranging attempts*, which is exactly why the paper's
multi-chirp accumulation defeats them.

:class:`NoiseBurstProcess` is a Poisson process of bursts; the ranging
simulator draws each chirp's burst intervals from it and raises its
per-sample false-positive-probability track inside them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative, check_positive, check_probability
from .environment import Environment

__all__ = ["NoiseBurstProcess"]


@dataclass(frozen=True)
class NoiseBurstProcess:
    """Poisson process of impulsive noise bursts.

    Attributes
    ----------
    rate_hz : float
        Expected bursts per second of recording.
    duration_s : float
        Mean burst duration (exponentially distributed).
    fp_rate : float
        Tone-detector false-positive probability during a burst.
    """

    rate_hz: float
    duration_s: float
    fp_rate: float

    def __post_init__(self):
        check_non_negative(self.rate_hz, "rate_hz")
        check_positive(self.duration_s, "duration_s")
        check_probability(self.fp_rate, "fp_rate")

    @classmethod
    def from_environment(cls, environment: Environment) -> "NoiseBurstProcess":
        """Build the burst process described by an environment preset."""
        return cls(
            rate_hz=environment.noise_burst_rate_hz,
            duration_s=environment.noise_burst_duration_s,
            fp_rate=environment.noise_burst_fp_rate,
        )

    def interval_sampler(self, n_samples: int, sampling_rate_hz: float):
        """A function ``draw(rng)`` returning the sample-index intervals
        ``[(start, stop), ...]`` of the bursts in one *n_samples*
        recording window.

        Arguments are validated once here, so the sampler can run per
        chirp.  Each call draws the burst count (``poisson``) and then
        each burst's start (``uniform``) and length (``exponential``);
        with a zero rate or an empty window it draws nothing.
        """
        check_positive(sampling_rate_hz, "sampling_rate_hz")
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        window_s = n_samples / sampling_rate_hz
        expected = self.rate_hz * window_s
        duration_s = self.duration_s
        silent = self.rate_hz == 0.0 or n_samples == 0

        def draw(rng):
            if silent:
                return []
            intervals = []
            for _ in range(int(rng.poisson(expected))):
                start_s = rng.uniform(0.0, window_s)
                length_s = rng.exponential(duration_s)
                start = int(start_s * sampling_rate_hz)
                stop = min(n_samples, start + max(1, int(length_s * sampling_rate_hz)))
                intervals.append((start, stop))
            return intervals

        return draw
