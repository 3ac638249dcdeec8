"""Adaptive three-threshold R-peak decision logic.

The decision loop walks candidate humps of the integrated signal with a
running signal/noise peak estimate per channel (integrated and band-passed),
a slope-based T-wave discriminator, an RR-driven search-back pass with a
third threshold built from surrounding peak amplitudes, and a low-threshold
recovery branch for very long gaps (e.g. after an amplitude spike blows up
the running estimates).

Detections are indexed in integrated-signal coordinates; use
:func:`localize_rpeaks` to map them back onto the raw trace.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, InputTooShortError, ProcessingError
from .pipeline import StageOutputs, ms_to_samples

# Half-width of the window used both to pair a candidate with its band-passed
# amplitude and to re-localize accepted beats on the raw trace.
LOCALIZE_HALF_WINDOW_S = 0.075

# Provenance tags / rejection reasons used in DetectionResult.
VIA_THRESHOLD1 = "threshold1"
VIA_SEARCHBACK = "searchback_t3"
VIA_SPIKE_RECOVERY = "spike_recovery"
REJECT_BELOW = "below_threshold"
REJECT_TWAVE = "t_wave"
REJECT_REFRACTORY = "refractory"


@dataclass(frozen=True)
class ThresholdState:
    """Running signal/noise peak estimates and the thresholds they imply.

    ``threshold2 = t2_ratio * threshold1`` after every recompute; the ratio is
    0.4 here and 0.5 for the classic detector.
    """

    spk: float
    npk: float
    threshold1: float
    threshold2: float
    t2_ratio: float = 0.4


@dataclass
class DetectorConfig:
    min_peak_separation_ms: float = 231.0
    twave_window_ms: float = 360.0
    twave_slope_window_ms: float = 70.0
    twave_slope_ratio: float = 0.6
    searchback_rr_factor: float = 1.66
    searchback_abs_s: float = 1.0
    spike_recovery_s: float = 1.4
    spike_recovery_t2_frac: float = 0.2
    rr_history_beats: int = 8
    init_window_s: float = 2.0
    post_peak_blank_ms: float = 360.0

    def validate(self) -> None:
        numeric = {k: v for k, v in vars(self).items() if k != "rr_history_beats"}
        for name, value in numeric.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.rr_history_beats < 1:
            raise ConfigError("rr_history_beats must be >= 1")
        if not 0 < self.twave_slope_ratio < 1:
            raise ConfigError("twave_slope_ratio must lie in (0, 1)")


@dataclass
class DetectionResult:
    """Output of a decision pass, in integrated-signal coordinates."""

    r_peaks: np.ndarray  # sorted sample indices
    provenance: list[str]  # one tag per peak
    rejected: list[tuple[int, str]]  # (candidate index, reason)


class RrTracker:
    """Ring of the most recent RR intervals (in samples).

    ``rr_mean`` stays undefined (None) until the ring is full, mirroring the
    "more than 8 beats" gate on the relative RR rules.
    """

    def __init__(self, history: int = 8):
        if history < 1:
            raise ConfigError("RR history must hold at least one interval")
        self.recent_rr_samples: deque[float] = deque(maxlen=history)

    def add(self, rr_samples: float) -> None:
        self.recent_rr_samples.append(float(rr_samples))

    @property
    def rr_mean(self) -> Optional[float]:
        ring = self.recent_rr_samples
        if len(ring) < ring.maxlen:
            return None
        return sum(ring) / len(ring)


def _thinned_maxima(x: np.ndarray, min_sep: int) -> np.ndarray:
    """Interior local maxima of ``x``, greedily thinned so survivors are at
    least ``min_sep`` apart; on conflict the larger amplitude wins and equal
    amplitudes keep the earlier index."""
    if len(x) < 3:
        return np.empty(0, dtype=np.int64)
    rising = x[1:-1] > x[:-2]
    falling = x[1:-1] >= x[2:]
    peaks = np.nonzero(rising & falling)[0] + 1
    if len(peaks) == 0 or min_sep <= 1:
        return peaks.astype(np.int64)
    order = np.argsort(-x[peaks], kind="stable")
    kept: list[int] = []
    for o in order:
        idx = int(peaks[o])
        pos = bisect.bisect_left(kept, idx)
        if pos > 0 and idx - kept[pos - 1] < min_sep:
            continue
        if pos < len(kept) and kept[pos] - idx < min_sep:
            continue
        kept.insert(pos, idx)
    return np.asarray(kept, dtype=np.int64)


def find_candidates(integrated: np.ndarray, fs: float,
                    cfg: DetectorConfig | None = None) -> np.ndarray:
    """Candidate peak indices on the integrated signal (231 ms spacing)."""
    if cfg is None:
        cfg = DetectorConfig()
    x = np.asarray(integrated, dtype=np.float64)
    min_sep = ms_to_samples(cfg.min_peak_separation_ms, fs)
    return _thinned_maxima(x, min_sep)


def init_thresholds(channel_signal: np.ndarray, fs: float,
                    cfg: DetectorConfig | None = None,
                    t2_ratio: float = 0.4) -> ThresholdState:
    """Bootstrap thresholds from the first ``init_window_s`` seconds:
    threshold1 = max/3, threshold2 = mean/2, spk/npk seeded from them."""
    if cfg is None:
        cfg = DetectorConfig()
    x = np.asarray(channel_signal, dtype=np.float64)
    n_init = int(cfg.init_window_s * fs + 0.5)
    if len(x) < n_init:
        raise InputTooShortError(
            f"need {n_init} samples ({cfg.init_window_s} s at fs={fs}) to "
            f"initialize thresholds, got {len(x)}")
    head = x[:n_init]
    threshold1 = float(head.max()) / 3.0
    threshold2 = 0.5 * float(head.mean())
    return ThresholdState(spk=threshold1, npk=threshold2,
                          threshold1=threshold1, threshold2=threshold2,
                          t2_ratio=t2_ratio)


def _recomputed(state: ThresholdState, spk: float, npk: float) -> ThresholdState:
    threshold1 = npk + 0.25 * (spk - npk)
    return replace(state, spk=spk, npk=npk, threshold1=threshold1,
                   threshold2=state.t2_ratio * threshold1)


def update_rule1(state: ThresholdState, peak: float,
                 is_signal: bool) -> ThresholdState:
    """Slow running-estimate update: 0.125·peak + 0.875·previous."""
    if peak < 0:
        raise ProcessingError(f"peak amplitude must be >= 0, got {peak}")
    if is_signal:
        return _recomputed(state, 0.125 * peak + 0.875 * state.spk, state.npk)
    return _recomputed(state, state.spk, 0.125 * peak + 0.875 * state.npk)


def update_rule2(state: ThresholdState, peak: float) -> ThresholdState:
    """Fast adaptation after a search-back find: both estimates are pulled
    three quarters of the way toward the new peak."""
    if peak < 0:
        raise ProcessingError(f"peak amplitude must be >= 0, got {peak}")
    return _recomputed(state, 0.75 * peak + 0.25 * state.spk,
                       0.75 * peak + 0.25 * state.npk)


def threshold3(state: ThresholdState, meansb: float) -> float:
    """Search-back threshold: halfway between threshold2 and the mean of the
    surrounding peak amplitudes."""
    if meansb < 0:
        raise ProcessingError(f"meansb must be >= 0, got {meansb}")
    return 0.5 * state.threshold2 + 0.5 * meansb


def mean_slope(filtered: np.ndarray, idx: int, fs: float,
               cfg: DetectorConfig | None = None) -> float:
    """Mean |first difference| of the band-passed signal over the trailing
    slope window ending at ``idx`` (window truncated at the record start)."""
    if cfg is None:
        cfg = DetectorConfig()
    w = ms_to_samples(cfg.twave_slope_window_ms, fs)
    lo = max(0, idx - w)
    seg = np.asarray(filtered[lo:idx + 1], dtype=np.float64)
    if len(seg) < 2:
        return 0.0
    return float(np.mean(np.abs(np.diff(seg))))


def detect(stages: StageOutputs, fs: float,
           cfg: DetectorConfig | None = None,
           trace: list | None = None) -> DetectionResult:
    """Run the decision loop over one channel's stage outputs.

    For every candidate hump of the integrated signal:

    * amplitude test — the integrated peak and its delay-aligned band-passed
      amplitude must both clear their channel's threshold1;
    * candidates that pass but arrive early (RR < 360 ms or < 0.5·rr_mean)
      face the T-wave slope test;
    * a long gap (RR > 1 s or > 1.66·rr_mean) triggers a search-back over
      (last beat + 360 ms, candidate]; the window maximum becomes a beat if
      it clears threshold3, with fast Rule-2 adaptation;
    * an even longer gap (RR > 1.4 s) retries the window against
      0.2·threshold2 when threshold3 found nothing;
    * everything else is a noise peak and feeds the noise estimates.

    ``trace``, when given a list, receives one entry per candidate with both
    channels' states after that candidate (diagnostics / property tests).
    """
    if cfg is None:
        cfg = DetectorConfig()
    cfg.validate()
    integ = np.asarray(stages.integrated, dtype=np.float64)
    filt = np.asarray(stages.filtered, dtype=np.float64)
    abs_filt = np.abs(filt)
    n = len(integ)
    delays = stages.stage_delays_samples
    align = (delays.get("derivative", 0) + delays.get("smooth", 0)
             + delays.get("mwi", 0))
    half_win = ms_to_samples(LOCALIZE_HALF_WINDOW_S * 1000.0, fs)

    def filtered_peak(i: int) -> float:
        c = min(max(i - align, 0), n - 1)
        lo = max(0, c - half_win)
        return float(abs_filt[lo:min(n, c + half_win + 1)].max())

    candidates = find_candidates(integ, fs, cfg)
    state_i = init_thresholds(integ, fs, cfg)
    state_f = init_thresholds(abs_filt, fs, cfg)

    min_sep = ms_to_samples(cfg.min_peak_separation_ms, fs)
    tw_rr = ms_to_samples(cfg.twave_window_ms, fs)
    blank = ms_to_samples(cfg.post_peak_blank_ms, fs)
    sb_abs = int(cfg.searchback_abs_s * fs + 0.5)
    spike_gap = int(cfg.spike_recovery_s * fs + 0.5)

    beat_idx: list[int] = []
    beat_amp: list[float] = []
    provenance: list[str] = []
    rejected: list[tuple[int, str]] = []
    tracker = RrTracker(cfg.rr_history_beats)

    def add_beat(j: int, tag: str) -> None:
        if beat_idx:
            tracker.add(j - beat_idx[-1])
        beat_idx.append(j)
        beat_amp.append(float(integ[j]))
        provenance.append(tag)

    def reject(i: int, reason: str, peak_i: float, peak_f: float) -> None:
        nonlocal state_i, state_f
        rejected.append((i, reason))
        state_i = update_rule1(state_i, peak_i, is_signal=False)
        state_f = update_rule1(state_f, peak_f, is_signal=False)

    for k, cand in enumerate(candidates):
        i = int(cand)
        peak_i = float(integ[i])
        peak_f = filtered_peak(i)
        rr = (i - beat_idx[-1]) if beat_idx else None
        rr_mean = tracker.rr_mean

        if rr is not None and rr < min_sep:
            reject(i, REJECT_REFRACTORY, peak_i, peak_f)
            if trace is not None:
                trace.append((i, state_i, state_f))
            continue

        passes_amp = (peak_i > state_i.threshold1
                      and peak_f > state_f.threshold1)
        is_twave = False
        if passes_amp and rr is not None and (
                rr < tw_rr or (rr_mean is not None and rr < 0.5 * rr_mean)):
            cur = mean_slope(filt, max(0, i - align), fs, cfg)
            prev = mean_slope(filt, max(0, beat_idx[-1] - align), fs, cfg)
            is_twave = cur < cfg.twave_slope_ratio * prev
        accept_current = passes_amp and not is_twave

        inserted_at = None
        if rr is not None and (rr > sb_abs or (
                rr_mean is not None and rr > cfg.searchback_rr_factor * rr_mean)):
            left = beat_idx[-1] + blank
            right = (i - min_sep) if accept_current else i
            if left <= right:
                window = integ[left:right + 1]
                j = left + int(np.argmax(window))
                wmax = float(integ[j])
                surrounding = beat_amp[-3:] + [
                    float(integ[c]) for c in candidates[k:k + 3]]
                t3 = threshold3(state_i, float(np.mean(surrounding)))
                tag = None
                if wmax > t3:
                    tag = VIA_SEARCHBACK
                elif (rr > spike_gap
                      and wmax > cfg.spike_recovery_t2_frac * state_i.threshold2):
                    tag = VIA_SPIKE_RECOVERY
                if tag is not None:
                    add_beat(j, tag)
                    state_i = update_rule2(state_i, wmax)
                    state_f = update_rule2(state_f, filtered_peak(j))
                    inserted_at = j

        if accept_current:
            add_beat(i, VIA_THRESHOLD1)
            state_i = update_rule1(state_i, peak_i, is_signal=True)
            state_f = update_rule1(state_f, peak_f, is_signal=True)
        elif is_twave:
            reject(i, REJECT_TWAVE, peak_i, peak_f)
        elif inserted_at != i:
            reject(i, REJECT_BELOW, peak_i, peak_f)

        if trace is not None:
            trace.append((i, state_i, state_f))

    return DetectionResult(r_peaks=np.asarray(beat_idx, dtype=np.int64),
                           provenance=provenance, rejected=rejected)


def localize_rpeaks(raw: np.ndarray, detections: DetectionResult,
                    stage_delays: dict[str, int], fs: float) -> np.ndarray:
    """Map integrated-coordinate detections back to raw-trace apex indices.

    Each detection is shifted left by the total causal delay of the pipeline
    and snapped to the largest |raw| sample within ±75 ms. The output is
    clipped to the record bounds and strictly increasing; when two detections
    collapse onto the same neighbourhood the larger amplitude wins.
    """
    x = np.abs(np.asarray(raw, dtype=np.float64))
    n = len(x)
    if n == 0 or len(detections.r_peaks) == 0:
        return np.empty(0, dtype=np.int64)
    total_delay = sum(stage_delays.values())
    w = ms_to_samples(LOCALIZE_HALF_WINDOW_S * 1000.0, fs)
    mapped: list[int] = []
    for det in detections.r_peaks:
        c = min(max(int(det) - total_delay, 0), n - 1)
        lo = max(0, c - w)
        hi = min(n, c + w + 1)
        mapped.append(lo + int(np.argmax(x[lo:hi])))
    out: list[int] = []
    for j in mapped:
        if not out or j > out[-1]:
            out.append(j)
            continue
        floor = out[-2] if len(out) > 1 else -1
        if x[j] > x[out[-1]] and j > floor:
            out[-1] = j
    return np.asarray(out, dtype=np.int64)
