"""The acoustic ranging service (baseline and refined variants).

Combines the link simulator with the detection algorithms to produce
distance estimates, mirroring Section 3 of the paper:

* **baseline** (Section 3.3) — a single chirp, detection = first binary
  hit of the hardware tone detector.  Unreliable: noise before the
  arrival yields underestimates, missed arrivals yield overestimates
  from echoes or later noise (Figure 2).
* **refined** (Section 3.5) — a pattern of chirps accumulated per
  buffer offset, ``k``-of-``m`` threshold detection (Figure 3), plus a
  per-environment calibration offset.

The service evaluates attempts in blocks: :meth:`RangingService.block`
hands out an empty :class:`~repro.ranging.link.ChirpBlock` sized for
the mode's chirp count, callers draw attempts into it in stream order,
and :meth:`RangingService.estimates` evaluates the whole block and runs
the row-wise detector on it.  :meth:`~RangingService.measure` is a
block of one; calibration and :meth:`~RangingService.detection_probability`
draw all their attempts into blocks of up to :data:`BLOCK_ATTEMPTS`.
Each evaluated block bumps the ``ranging.attempts`` and
``ranging.detections`` counters once.  Campaign-level
orchestration (rounds, node pairs, persistent link draws) lives in
:mod:`repro.ranging.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from .._validation import ensure_rng
from ..acoustics.environment import Environment
from ..acoustics.hardware import HardwareProfile
from ..acoustics.signal import ChirpPattern
from ..errors import CalibrationError, ValidationError
from .detection import detect_signal_rows, first_hit_rows
from .link import AcousticLinkSimulator, ChirpBlock, LinkRealization
from .tdoa import TdoaConfig

__all__ = ["DetectionParams", "RangingService"]

#: Counters bumped once per evaluated block: directed attempts evaluated,
#: and those whose buffer yielded a detection.
ATTEMPTS_COUNTER = "ranging.attempts"
DETECTIONS_COUNTER = "ranging.detections"

#: Most attempts one block holds in calibration and detection-probability
#: runs, which bounds their memory however many attempts they make.
BLOCK_ATTEMPTS = 16


@dataclass(frozen=True)
class DetectionParams:
    """Threshold-detection parameters of the refined service.

    The field experiments used ``threshold = 2`` with at least ``k = 6``
    of ``m = 32`` consecutive samples (Section 3.6): low thresholds suit
    high-attenuation environments at the cost of some false-positive
    vulnerability.
    """

    threshold: int = 2
    k: int = 6
    m: int = 32

    def __post_init__(self):
        if self.threshold < 1 or self.k < 1 or self.m < 1:
            raise ValidationError("detection parameters must be >= 1")
        if self.k > self.m:
            raise ValidationError("k cannot exceed m")


@dataclass
class RangingService:
    """Simulated acoustic ranging service for one environment.

    Parameters
    ----------
    environment : Environment
        Acoustic environment preset.
    mode : {"refined", "baseline"}
        Which detection pipeline to run.
    pattern : ChirpPattern
        Chirp pattern (ignored in baseline mode, which sends one chirp).
    detection : DetectionParams
        Refined-mode threshold parameters.
    tdoa : TdoaConfig
        Buffer geometry; carry calibration offsets here.
    link_simulator : AcousticLinkSimulator or None
        Custom link simulator; built from the other parameters if None.
    """

    environment: Environment
    mode: str = "refined"
    pattern: ChirpPattern = field(default_factory=ChirpPattern)
    detection: DetectionParams = field(default_factory=DetectionParams)
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)
    link_simulator: Optional[AcousticLinkSimulator] = None

    def __post_init__(self):
        if self.mode not in ("refined", "baseline"):
            raise ValidationError(f"mode must be 'refined' or 'baseline'; got {self.mode!r}")
        if self.link_simulator is None:
            self.link_simulator = AcousticLinkSimulator(
                environment=self.environment,
                pattern=self.pattern,
                tdoa=self.tdoa,
            )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def block(self, capacity: int) -> ChirpBlock:
        """An empty block for up to *capacity* attempts of this mode's
        chirp pattern (a single chirp in baseline mode)."""
        return self.link_simulator.block(capacity, 1 if self.mode == "baseline" else None)

    def estimates(self, block: ChirpBlock) -> List[Optional[float]]:
        """Evaluate and detect every attempt of *block*: one distance or
        ``None`` per attempt, in draw order (see :meth:`measure`)."""
        counts = block.counts()
        if self.mode == "baseline":
            index = first_hit_rows(counts, threshold=1)
        else:
            index = detect_signal_rows(
                counts,
                k=self.detection.k,
                m=self.detection.m,
                threshold=self.detection.threshold,
            )
        detected = index >= 0
        telemetry.count(ATTEMPTS_COUNTER, len(index))
        telemetry.count(DETECTIONS_COUNTER, int(detected.sum()))
        return [
            self.tdoa.distance_from_index(int(i)) if hit else None
            for i, hit in zip(index, detected)
        ]

    def measure(
        self,
        distance_m: float,
        *,
        source_hw: Optional[HardwareProfile] = None,
        receiver_hw: Optional[HardwareProfile] = None,
        link: Optional[LinkRealization] = None,
        rng=None,
    ) -> Optional[float]:
        """One directed ranging attempt; returns a distance or None.

        ``None`` means no detection — the receiver never identified the
        chirp (out of range, excessive attenuation, bad luck).
        """
        block = self.block(1)
        block.draw(
            distance_m,
            source_hw=source_hw,
            receiver_hw=receiver_hw,
            link=link,
            rng=rng,
        )
        return self.estimates(block)[0]

    def _fresh_link_estimates(self, distances_m: Sequence[float], rng) -> List[Optional[float]]:
        """One measurement per entry of *distances_m*, each over a freshly
        drawn link, evaluated in blocks of at most :data:`BLOCK_ATTEMPTS`."""
        estimates: List[Optional[float]] = []
        block = self.block(min(len(distances_m), BLOCK_ATTEMPTS))
        for first in range(0, len(distances_m), BLOCK_ATTEMPTS):
            block.clear()
            for d in distances_m[first : first + BLOCK_ATTEMPTS]:
                block.draw(d, link=self.link_simulator.draw_link(rng), rng=rng)
            estimates += self.estimates(block)
        return estimates

    def detection_probability(
        self,
        distance_m: float,
        *,
        attempts: int = 50,
        within_m: Optional[float] = None,
        rng=None,
    ) -> float:
        """Monte-Carlo probability of detecting a chirp at *distance_m*.

        Used for the max-range studies of Section 3.6.2.  With
        *within_m* set, only detections whose estimate falls within that
        margin of the true distance count — distinguishing genuine chirp
        detections from noise-triggered garbage, as the paper's
        ground-truth-surveyed range experiments could.
        """
        if attempts < 1:
            raise ValidationError("attempts must be >= 1")
        rng = ensure_rng(rng)
        hits = 0
        for estimate in self._fresh_link_estimates([distance_m] * attempts, rng):
            if estimate is None:
                continue
            if within_m is not None and abs(estimate - distance_m) > within_m:
                continue
            hits += 1
        return hits / attempts

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def calibrate(
        self,
        distances_m: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
        *,
        rounds: int = 10,
        rng=None,
    ) -> "RangingService":
        """Calibrate the constant offset against known distances.

        Mirrors the field procedure of Section 3.6: measure nodes at
        surveyed distances in the target environment, take the median
        signed error as the constant sensing/actuation offset, and fold
        it into ``delta_const`` (here: ``tdoa.calibration_offset_m``).
        Returns a new service carrying the calibrated config.
        """
        rng = ensure_rng(rng)
        surveyed = [float(d) for d in distances_m for _ in range(rounds)]
        errors = [
            est - d
            for d, est in zip(surveyed, self._fresh_link_estimates(surveyed, rng))
            if est is not None
        ]
        if not errors:
            raise CalibrationError(
                "calibration produced no detections at any distance; "
                "environment may be too hostile or distances too large"
            )
        offset = float(np.median(errors)) + self.tdoa.calibration_offset_m
        calibrated_tdoa = self.tdoa.with_calibration(offset)
        return replace(
            self,
            tdoa=calibrated_tdoa,
            link_simulator=replace(self.link_simulator, tdoa=calibrated_tdoa),
        )
