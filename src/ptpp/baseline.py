"""Classic two-threshold detector, kept as the comparison baseline.

It runs the same candidate loop as the main detector
(:mod:`ptpp.detector`), under a different policy: single-channel thresholds
on the integrated signal only, threshold2 = 0.5·threshold1, a 200 ms
refractory, a 0.5 T-wave slope ratio, search-back triggered purely by
1.66·rr_mean with threshold2 as its bar and slow Rule-1 adaptation, no
low-threshold recovery, and the old "halve the thresholds when an RR
interval falls outside 92–116 % of the running mean" adjustment. Pair it
with the pipeline config ``ptpp.default_pipeline_config("pt")`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detector import (
    DetectionResult,
    DetectorConfig,
    _decide,
    _Policy,
    find_candidates,
)
from .errors import ConfigError
from .pipeline import StageOutputs

VIA_SEARCHBACK_T2 = "searchback_t2"


@dataclass
class PtConfig:
    refractory_ms: float = 200.0
    twave_window_ms: float = 360.0
    twave_slope_ratio: float = 0.5
    searchback_rr_factor: float = 1.66
    rr_low_frac: float = 0.92
    rr_high_frac: float = 1.16

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not 0 < value < math.inf:  # rejects NaN too
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")
        for name in ("rr_low_frac", "rr_high_frac"):
            if not 0 < getattr(self, name) < 2:
                raise ConfigError(f"{name} must lie in (0, 2)")
        if self.rr_low_frac >= self.rr_high_frac:
            raise ConfigError("rr_low_frac must be below rr_high_frac")
        if not 0 < self.twave_slope_ratio < 1:
            raise ConfigError("twave_slope_ratio must lie in (0, 1)")


def detect_pt(stages: StageOutputs, fs: float,
              cfg: PtConfig | None = None,
              trace: list | None = None) -> DetectionResult:
    """Classic decision loop over one channel's stage outputs.

    ``trace``, when given a list, collects ``(candidate_index, state)``
    after every candidate is handled.
    """
    if cfg is None:
        cfg = PtConfig()
    cfg.validate()
    # The classic settings in the main detector's terms. Search-back starts
    # one refractory after the last beat and has no absolute-time trigger;
    # spike recovery is off.
    shared = DetectorConfig(
        min_peak_separation_ms=cfg.refractory_ms,
        post_peak_blank_ms=cfg.refractory_ms,
        twave_window_ms=cfg.twave_window_ms,
        twave_slope_ratio=cfg.twave_slope_ratio,
        searchback_rr_factor=cfg.searchback_rr_factor,
        searchback_abs_s=math.inf,
        spike_recovery_s=math.inf,
    )
    candidates = find_candidates(stages.integrated, fs, shared)
    policy = _Policy(
        band_channel=False,
        t2_ratio=0.5,
        twave_rr_mean_frac=0.0,
        halve_band=(cfg.rr_low_frac, cfg.rr_high_frac),
        searchback_tag=VIA_SEARCHBACK_T2,
        threshold3_bar=False,
        fast_insert=False,
    )
    return _decide(stages, fs, candidates, shared, policy, trace)
