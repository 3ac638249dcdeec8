"""Classic two-threshold decision phase, kept as the comparison baseline.

Differences from the main detector, on purpose: single-channel thresholds on
the integrated signal only, threshold2 = 0.5·threshold1, a 200 ms refractory,
a 0.5 T-wave slope ratio, search-back triggered purely by 1.66·rr_mean with
threshold2 as its bar, and the old "halve the thresholds when an RR interval
falls outside 92–116 % of the running mean" adjustment. Pair it with the
5–15 Hz band and no flat-top smoothing (``PipelineConfig(band_high_hz=15,
smooth_enabled=False)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .detector import (
    REJECT_BELOW,
    REJECT_REFRACTORY,
    REJECT_TWAVE,
    VIA_THRESHOLD1,
    DetectionResult,
    DetectorConfig,
    RrTracker,
    ThresholdState,
    find_candidates,
    init_thresholds,
    mean_slope,
    update_rule1,
)
from .errors import ConfigError
from .pipeline import StageOutputs, ms_to_samples

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
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name in ("rr_low_frac", "rr_high_frac"):
            if not 0 < getattr(self, name) < 2:
                raise ConfigError(f"{name} must lie in (0, 2)")
        if self.rr_low_frac >= self.rr_high_frac:
            raise ConfigError("rr_low_frac must be below rr_high_frac")


def _halved(state: ThresholdState) -> ThresholdState:
    threshold1 = 0.5 * state.threshold1
    return replace(state, threshold1=threshold1,
                   threshold2=state.t2_ratio * threshold1)


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
    integ = np.asarray(stages.integrated, dtype=np.float64)
    filt = np.asarray(stages.filtered, dtype=np.float64)
    delays = stages.stage_delays_samples
    align = (delays.get("derivative", 0) + delays.get("smooth", 0)
             + delays.get("mwi", 0))

    # Shared helpers (candidate thinning, init, slope window) run off a
    # DetectorConfig carrying the classic spacing.
    shared = DetectorConfig(min_peak_separation_ms=cfg.refractory_ms)
    candidates = find_candidates(integ, fs, shared)
    state = init_thresholds(integ, fs, shared, t2_ratio=0.5)

    min_sep = ms_to_samples(cfg.refractory_ms, fs)
    tw_rr = ms_to_samples(cfg.twave_window_ms, fs)

    beat_idx: list[int] = []
    provenance: list[str] = []
    rejected: list[tuple[int, str]] = []
    tracker = RrTracker(shared.rr_history_beats)

    def add_beat(j: int, tag: str) -> None:
        nonlocal state
        rr_before = tracker.rr_mean
        if beat_idx:
            rr = j - beat_idx[-1]
            tracker.add(rr)
            if rr_before is not None and not (
                    cfg.rr_low_frac * rr_before <= rr <= cfg.rr_high_frac * rr_before):
                state = _halved(state)
        beat_idx.append(j)
        provenance.append(tag)

    for i in candidates:
        i = int(i)
        peak = float(integ[i])
        rr = (i - beat_idx[-1]) if beat_idx else None
        rr_mean = tracker.rr_mean

        if rr is not None and rr < min_sep:
            rejected.append((i, REJECT_REFRACTORY))
            state = update_rule1(state, peak, is_signal=False)
            if trace is not None:
                trace.append((i, state))
            continue

        passes = peak > state.threshold1
        is_twave = False
        if passes and rr is not None and rr < tw_rr:
            cur = mean_slope(filt, max(0, i - align), fs, shared)
            prev = mean_slope(filt, max(0, beat_idx[-1] - align), fs, shared)
            is_twave = cur < cfg.twave_slope_ratio * prev
        accept_current = passes and not is_twave

        inserted_at = None
        if (rr is not None and rr_mean is not None
                and rr > cfg.searchback_rr_factor * rr_mean):
            left = beat_idx[-1] + min_sep
            right = (i - min_sep) if accept_current else i
            if left <= right:
                window = integ[left:right + 1]
                j = left + int(np.argmax(window))
                if float(integ[j]) > state.threshold2:
                    # Update first: the halving inside add_beat must outlive
                    # this candidate's own threshold recompute.
                    state = update_rule1(state, float(integ[j]), is_signal=True)
                    add_beat(j, VIA_SEARCHBACK_T2)
                    inserted_at = j

        if accept_current:
            state = update_rule1(state, peak, is_signal=True)
            add_beat(i, VIA_THRESHOLD1)
        elif is_twave:
            rejected.append((i, REJECT_TWAVE))
            state = update_rule1(state, peak, is_signal=False)
        elif inserted_at != i:
            rejected.append((i, REJECT_BELOW))
            state = update_rule1(state, peak, is_signal=False)

        if trace is not None:
            trace.append((i, state))

    return DetectionResult(r_peaks=np.asarray(beat_idx, dtype=np.int64),
                           provenance=provenance, rejected=rejected)
