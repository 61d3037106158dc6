"""Deployment-scale ranging campaigns.

Orchestrates the ranging service over a full deployment the way the
field experiments ran (Section 3.6): several *rounds*, each node in turn
emitting one chirp sequence while every other node within plausible
acoustic range attempts detection.  Persistent per-link and per-node
draws (hardware profiles, ground-cover gain, echo paths) are held fixed
across rounds so errors correlate exactly the way the paper's filtering
pipeline expects.

Each ``(round, source)`` sequence is one block: the campaign draws the
attempts of all the source's receivers into a
:class:`~repro.ranging.link.ChirpBlock` -- per receiver the radio sync
(``radio.delivers``), the link's first-use ``draw_link``, then the
attempt's own draws -- and evaluates and detects the whole block at
once.  The generator is consumed in the same order as one attempt at a
time, and measurements are added in receiver order, so the result does
not depend on the blocking.  A block holds at most ``(n_nodes - 1) x
chirps`` buffers, reused across blocks; a whole campaign is never
stacked.

The output is a :class:`~repro.core.measurements.MeasurementSet` with
ground truth attached, ready for the filtering/consistency stages and
for localization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .._validation import as_positions, check_positive, ensure_rng
from ..acoustics.hardware import HardwarePopulation, HardwareProfile
from ..core.measurements import MeasurementSet, RangeMeasurement
from ..network.radio import RadioModel
from .link import LinkRealization
from .service import RangingService

__all__ = ["CampaignConfig", "RangingCampaign", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a ranging campaign.

    Attributes
    ----------
    rounds : int
        Measurement rounds; each round is one chirp sequence per node
        (Figure 6 reports three rounds of bidirectional = six rounds of
        directed measurements).
    attempt_range_m : float or None
        Pairs farther apart than this skip the acoustic attempt (the
        radio coordination still happens, but no detector buffer would
        ever fire).  Defaults to 1.3x the TDoA max range — attempts just
        beyond the design range still run and simply fail to detect.
    radio : RadioModel
        Radio used for the coordination messages; a lost sync message
        skips that round's attempt for the affected receiver.
    """

    rounds: int = 3
    attempt_range_m: Optional[float] = None
    radio: RadioModel = field(default_factory=RadioModel)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.attempt_range_m is not None:
            check_positive(self.attempt_range_m, "attempt_range_m")


class RangingCampaign:
    """Stateful campaign runner: persistent hardware and link draws.

    Parameters
    ----------
    positions : array-like of shape (n, 2)
        Ground-truth node positions.
    service : RangingService
        The (calibrated) ranging service to exercise.
    config : CampaignConfig
        Campaign parameters.
    hardware_population : HardwarePopulation
        Distribution of per-node hardware profiles.
    rng : None, int or Generator
        Randomness source.
    """

    def __init__(
        self,
        positions,
        service: RangingService,
        *,
        config: Optional[CampaignConfig] = None,
        hardware_population: Optional[HardwarePopulation] = None,
        rng=None,
    ) -> None:
        self.positions = as_positions(positions, "positions")
        self.service = service
        self.config = config if config is not None else CampaignConfig()
        self._rng = ensure_rng(rng)
        population = hardware_population if hardware_population is not None else HardwarePopulation()
        self.hardware: Dict[int, HardwareProfile] = {
            i: population.sample(self._rng) for i in range(self.positions.shape[0])
        }
        self._links: Dict[Tuple[int, int], LinkRealization] = {}

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])

    def _attempt_range(self) -> float:
        if self.config.attempt_range_m is not None:
            return self.config.attempt_range_m
        return 1.3 * self.service.tdoa.max_range_m

    def link_for(self, i: int, j: int) -> LinkRealization:
        """Persistent link realization for the undirected pair (i, j)."""
        key = (min(i, j), max(i, j))
        if key not in self._links:
            self._links[key] = self.service.link_simulator.draw_link(self._rng)
        return self._links[key]

    def true_distance(self, i: int, j: int) -> float:
        diff = self.positions[i] - self.positions[j]
        return float(np.hypot(diff[0], diff[1]))

    def run(self) -> MeasurementSet:
        """Execute all rounds; returns the raw directed measurement set."""
        found = []
        limit = self._attempt_range()
        n = self.n_nodes
        block = self.service.block(max(n - 1, 0))
        for round_index in range(self.config.rounds):
            for source in range(n):
                block.clear()
                attempted = []
                for receiver in range(n):
                    if receiver == source:
                        continue
                    distance = self.true_distance(source, receiver)
                    if distance > limit:
                        continue
                    # The per-chirp radio sync message must arrive for
                    # the receiver to record this source's sequence.
                    if not self.config.radio.delivers(distance, self._rng):
                        continue
                    block.draw(
                        distance,
                        source_hw=self.hardware[source],
                        receiver_hw=self.hardware[receiver],
                        link=self.link_for(source, receiver),
                        rng=self._rng,
                    )
                    attempted.append((receiver, distance))
                if not attempted:
                    continue
                estimates = self.service.estimates(block)
                found += [
                    RangeMeasurement(source, receiver, estimate, distance, round_index)
                    for (receiver, distance), estimate in zip(attempted, estimates)
                    if estimate is not None
                ]
        return MeasurementSet(found)


def run_campaign(
    positions,
    service: RangingService,
    *,
    rounds: int = 3,
    rng=None,
    hardware_population: Optional[HardwarePopulation] = None,
) -> MeasurementSet:
    """Convenience wrapper: build and run a campaign in one call."""
    campaign = RangingCampaign(
        positions,
        service,
        config=CampaignConfig(rounds=rounds),
        hardware_population=hardware_population,
        rng=rng,
    )
    return campaign.run()
