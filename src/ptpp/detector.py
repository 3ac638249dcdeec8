"""Adaptive-threshold R-peak decision logic.

One candidate loop serves both detectors, each under a small policy. It walks
candidate humps of the integrated signal with a running signal/noise peak
estimate per channel, a slope-based T-wave discriminator and an RR-driven
search-back pass. Pan-Tompkins++ (:func:`detect`) uses the integrated and
band-passed channels, a search-back bar (threshold3) built from surrounding
peak amplitudes, and a low-threshold recovery branch for very long gaps (e.g.
after an amplitude spike blows up the running estimates); the classic
:func:`ptpp.baseline.detect_pt` uses the integrated channel alone.

Detections are indexed in integrated-signal coordinates; use
:func:`localize_rpeaks` to map them back onto the raw trace.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, InputTooShortError, ProcessingError
from .pipeline import StageOutputs, ms_to_samples

# Half-width of the window used both to pair a candidate with its band-passed
# amplitude and to re-localize accepted beats on the raw trace.
LOCALIZE_HALF_WINDOW_S = 0.075
# Bytes of windows and their indices that _window_argmax gathers at once.
_LOCALIZE_BLOCK_BYTES = 1 << 16
# Items the per-element loops read from an array as Python numbers at once.
# A Python number indexes and compares faster than a numpy scalar, but each
# is an object: on 24 10-min CSV records, 4096-item blocks raised peak RSS by
# ~0.4 MB and whole-record lists by ~0.6 MB; on a 2-h record, whole lists made
# it swing from 100 to 133 MB. 256-item blocks kept both at the scalar loop's.
_BLOCK_ITEMS = 256

# Provenance tags / rejection reasons used in DetectionResult.
VIA_THRESHOLD1 = "threshold1"
VIA_SEARCHBACK = "searchback_t3"
VIA_SPIKE_RECOVERY = "spike_recovery"
REJECT_BELOW = "below_threshold"
REJECT_TWAVE = "t_wave"


@dataclass(slots=True)
class ThresholdState:
    """Running signal/noise peak estimates and the thresholds they imply.

    ``threshold2 = t2_ratio * threshold1`` after every recompute; the ratio is
    0.4 here and 0.5 for the classic detector. The decision loop updates one
    state per channel in place, so a state is mutable and unhashable; the
    public rules (:func:`update_rule1`, :func:`update_rule2`) return a copy.
    """

    spk: float
    npk: float
    threshold1: float
    threshold2: float
    t2_ratio: float = 0.4

    def _recompute(self, peak: float, spk: float, npk: float) -> None:
        if peak < 0:
            raise ProcessingError(f"peak amplitude must be >= 0, got {peak}")
        self.spk = spk
        self.npk = npk
        self.threshold1 = npk + 0.25 * (spk - npk)
        self.threshold2 = self.t2_ratio * self.threshold1

    def signal(self, peak: float) -> None:  # Rule 1, signal peak
        self._recompute(peak, 0.125 * peak + 0.875 * self.spk, self.npk)

    def noise(self, peak: float) -> None:  # Rule 1, noise peak
        self._recompute(peak, self.spk, 0.125 * peak + 0.875 * self.npk)

    def fast(self, peak: float) -> None:  # Rule 2
        self._recompute(peak, 0.75 * peak + 0.25 * self.spk,
                        0.75 * peak + 0.25 * self.npk)

    def halve(self) -> None:
        self.threshold1 = 0.5 * self.threshold1
        self.threshold2 = self.t2_ratio * self.threshold1

    def threshold3(self, meansb: float) -> float:
        if meansb < 0:
            raise ProcessingError(f"meansb must be >= 0, got {meansb}")
        return 0.5 * self.threshold2 + 0.5 * meansb


# Absolute-time triggers that accept math.inf as "off".
_OFF_WHEN_INF = ("searchback_abs_s", "spike_recovery_s")


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
        # "not > 0" also rejects NaN. inf is allowed only where it switches
        # a trigger off; a finite duration may still be inf samples long.
        numeric = {k: v for k, v in vars(self).items() if k != "rr_history_beats"}
        for name, value in numeric.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
            if math.isinf(value) and name not in _OFF_WHEN_INF:
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.rr_history_beats < 1:
            raise ConfigError("rr_history_beats must be >= 1")
        if self.rr_history_beats > sys.maxsize:  # a deque's largest maxlen
            raise ConfigError(f"rr_history_beats must be <= {sys.maxsize}")
        if not 0 < self.twave_slope_ratio < 1:
            raise ConfigError("twave_slope_ratio must lie in (0, 1)")


@dataclass
class DetectionResult:
    """Output of a decision pass, in integrated-signal coordinates."""

    r_peaks: np.ndarray  # sorted sample indices
    provenance: list[str]  # one tag per peak
    rejected: list[tuple[int, str]]  # (candidate index, reason)


def find_candidates(integrated: np.ndarray, fs: float,
                    cfg: DetectorConfig | None = None) -> np.ndarray:
    """Candidate peak indices on the integrated signal: its interior local
    maxima, greedily thinned so survivors are at least 231 ms apart. Maxima
    are visited largest first (equal amplitudes earlier first); each one not
    yet marked is kept and marks every maximum closer than the spacing."""
    if cfg is None:
        cfg = DetectorConfig()
    x = np.asarray(integrated, dtype=np.float64)
    # Any two maxima lie closer than len(x) + 1 samples, so a wider spacing
    # thins alike; clipping keeps the int64 sums below from overflowing.
    min_sep = min(ms_to_samples(cfg.min_peak_separation_ms, fs), len(x) + 1)
    peaks = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:]))[0] + 1
    # Maxima lo[m]:hi[m] lie closer than min_sep to maximum m.
    lo = np.searchsorted(peaks, peaks - (min_sep - 1))
    hi = np.searchsorted(peaks, peaks + min_sep)
    # free[m] is 1 until a kept maximum marks m; a bytearray reads as ints.
    free = bytearray(b"\x01") * len(peaks)
    kept = np.zeros(len(peaks), dtype=bool)
    order = np.argsort(-x[peaks], kind="stable")
    for start in range(0, len(order), _BLOCK_ITEMS):
        block = order[start:start + _BLOCK_ITEMS]
        for m, a, b in zip(block.tolist(), lo[block].tolist(),
                           hi[block].tolist()):
            if free[m]:
                kept[m] = True
                free[a:b] = bytes(b - a)
    return peaks[kept].astype(np.int64)


def init_thresholds(channel_signal: np.ndarray, fs: float,
                    cfg: DetectorConfig | None = None,
                    t2_ratio: float = 0.4) -> ThresholdState:
    """Bootstrap thresholds from the first ``init_window_s`` seconds:
    threshold1 = max/3, threshold2 = mean/2, spk/npk seeded from them."""
    if cfg is None:
        cfg = DetectorConfig()
    x = np.asarray(channel_signal, dtype=np.float64)
    n_init = ms_to_samples(cfg.init_window_s * 1000.0, fs)
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


def update_rule1(state: ThresholdState, peak: float,
                 is_signal: bool) -> ThresholdState:
    """Slow running-estimate update: 0.125·peak + 0.875·previous."""
    new = replace(state)
    (new.signal if is_signal else new.noise)(peak)
    return new


def update_rule2(state: ThresholdState, peak: float) -> ThresholdState:
    """Fast adaptation after a search-back find: both estimates are pulled
    three quarters of the way toward the new peak."""
    new = replace(state)
    new.fast(peak)
    return new


def threshold3(state: ThresholdState, meansb: float) -> float:
    """Search-back threshold: halfway between threshold2 and the mean of the
    surrounding peak amplitudes."""
    return state.threshold3(meansb)


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


@dataclass(frozen=True)
class _Policy:
    """The rules in which the two detectors' decision loops differ; their
    durations and ratios come from a :class:`DetectorConfig`."""

    band_channel: bool  # the band-passed amplitude must clear threshold1 too
    t2_ratio: float
    twave_rr_mean_frac: float  # RR below this × rr_mean faces the slope test
    halve_band: tuple[float, float]  # RR outside this × rr_mean halves
    searchback_tag: str
    # (integrated channel, mean surrounding amplitude) -> search-back bar
    searchback_bar: Callable[[ThresholdState, float], float]
    insert_rule: Callable[[ThresholdState, float], None]  # adapts to a find


def _window_argmax(absx: np.ndarray, w: int, centres) -> np.ndarray:
    """Index of the first maximum of absx within ±w of each (clipped) centre.
    Windows cut at a record end repeat the end sample, which wins only there."""
    last = len(absx) - 1
    centres = np.clip(centres, 0, last)
    offsets = np.arange(-w, w + 1)
    block = max(1, _LOCALIZE_BLOCK_BYTES // (absx.itemsize + offsets.itemsize)
                // len(offsets))
    out = np.empty(len(centres), dtype=np.int64)
    for i in range(0, len(centres), block):
        idx = centres[i:i + block, None] + offsets
        np.clip(idx, 0, last, out=idx)
        out[i:i + block] = idx[np.arange(len(idx)),
                               np.argmax(absx[idx], axis=1)]
    return out


def _blocks(candidates: np.ndarray, integ: np.ndarray, band: list):
    """Yield (k, candidates[k], [integ[candidates[k]], *(b[k] for b in
    band)]) as Python numbers, converting _BLOCK_ITEMS of them at a time."""
    for start in range(0, len(candidates), _BLOCK_ITEMS):
        block = candidates[start:start + _BLOCK_ITEMS]
        columns = [integ[block].tolist()] + [
            b[start:start + _BLOCK_ITEMS].tolist() for b in band]
        for k, i, *peaks in zip(range(start, start + len(block)),
                                block.tolist(), *columns):
            yield k, i, peaks


def _decide(stages: StageOutputs, fs: float, candidates: np.ndarray,
            cfg: DetectorConfig, policy: _Policy,
            trace: list | None) -> DetectionResult:
    """The candidate loop both detectors run; see :func:`detect`."""
    p = policy
    integ = np.asarray(stages.integrated, dtype=np.float64)
    filt = np.asarray(stages.filtered, dtype=np.float64)
    delays = stages.stage_delays_samples  # filt lags integ by every later stage
    align = sum(delays.values()) - delays.get("bandpass", 0)
    levels = [init_thresholds(integ, fs, cfg, p.t2_ratio)]
    if p.band_channel:
        half_win = ms_to_samples(LOCALIZE_HALF_WINDOW_S * 1000.0, fs)
        abs_filt = np.abs(filt)
        levels.append(init_thresholds(abs_filt, fs, cfg, p.t2_ratio))
    lead = levels[0]

    def band_peaks(idx: np.ndarray) -> list[np.ndarray]:
        # Band channel, if any: max |band-passed| within ±75 ms of idx - align.
        if not p.band_channel:
            return []
        return [abs_filt[_window_argmax(abs_filt, half_win, idx - align)]]
    band = band_peaks(candidates)

    min_sep = ms_to_samples(cfg.min_peak_separation_ms, fs)
    tw_rr = ms_to_samples(cfg.twave_window_ms, fs)
    blank = ms_to_samples(cfg.post_peak_blank_ms, fs)
    sb_abs = ms_to_samples(cfg.searchback_abs_s * 1000.0, fs)
    spike_gap = ms_to_samples(cfg.spike_recovery_s * 1000.0, fs)
    low, high = p.halve_band

    beat_idx: list[int] = []
    provenance: list[str] = []
    rejected: list[tuple[int, str]] = []
    rrs: deque[int] = deque(maxlen=cfg.rr_history_beats)
    # Mean of the last rr_history_beats RR intervals, undefined until the
    # ring is full: the relative RR rules wait for that many. The integer
    # sum is exact, so the mean is the float sum(rrs) / len(rrs) gives.
    rr_sum = 0
    rr_mean: float | None = None

    def add_beat(j: int, tag: str) -> None:
        nonlocal rr_sum, rr_mean
        if beat_idx:
            rr, mean = j - beat_idx[-1], rr_mean
            if len(rrs) == rrs.maxlen:
                rr_sum -= rrs[0]
            rrs.append(rr)
            rr_sum += rr
            if len(rrs) == rrs.maxlen:
                rr_mean = rr_sum / len(rrs)
            if mean is not None and not (low * mean <= rr <= high * mean):
                for lv in levels:
                    lv.halve()
        beat_idx.append(j)
        provenance.append(tag)

    for k, i, peaks in _blocks(candidates, integ, band):
        rr = (i - beat_idx[-1]) if beat_idx else None

        passes_amp = True
        for peak, lv in zip(peaks, levels):
            if not peak > lv.threshold1:
                passes_amp = False
                break
        is_twave = False
        if passes_amp and rr is not None and (
                rr < tw_rr or (rr_mean is not None
                               and rr < p.twave_rr_mean_frac * rr_mean)):
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
                j = left + int(np.argmax(integ[left:right + 1]))
                wmax = float(integ[j])
                around = integ[beat_idx[-3:] + candidates[k:k + 3].tolist()]
                tag = None
                if wmax > p.searchback_bar(lead, float(np.mean(around))):
                    tag = p.searchback_tag
                elif (rr > spike_gap
                      and wmax > cfg.spike_recovery_t2_frac * lead.threshold2):
                    tag = VIA_SPIKE_RECOVERY
                if tag is not None:
                    # Adapt before add_beat: a halving there must outlive
                    # this find's own threshold recompute.
                    found = [wmax] + [
                        float(b[0]) for b in band_peaks(np.array([j]))]
                    for lv, peak in zip(levels, found):
                        p.insert_rule(lv, peak)
                    add_beat(j, tag)
                    inserted_at = j

        if accept_current:
            for lv, peak in zip(levels, peaks):
                lv.signal(peak)
            add_beat(i, VIA_THRESHOLD1)
        elif is_twave or inserted_at != i:
            rejected.append((i, REJECT_TWAVE if is_twave else REJECT_BELOW))
            for lv, peak in zip(levels, peaks):
                lv.noise(peak)

        if trace is not None:
            trace.append((i, *[replace(lv) for lv in levels]))

    return DetectionResult(r_peaks=np.asarray(beat_idx, dtype=np.int64),
                           provenance=provenance, rejected=rejected)


_PTPP_POLICY = _Policy(
    band_channel=True,
    t2_ratio=0.4,
    twave_rr_mean_frac=0.5,
    halve_band=(0.0, math.inf),
    searchback_tag=VIA_SEARCHBACK,
    searchback_bar=ThresholdState.threshold3,
    insert_rule=ThresholdState.fast,
)


def detect(stages: StageOutputs, fs: float,
           cfg: DetectorConfig | None = None,
           trace: list | None = None) -> DetectionResult:
    """Run the Pan-Tompkins++ decision loop over one channel's stage outputs.

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
    candidates = find_candidates(stages.integrated, fs, cfg)
    return _decide(stages, fs, candidates, cfg, _PTPP_POLICY, trace)


def localize_rpeaks(raw: np.ndarray, detections: DetectionResult,
                    stage_delays: dict[str, int], fs: float,
                    sources: list | None = None) -> np.ndarray:
    """Map integrated-coordinate detections back to raw-trace apex indices.

    Each detection is shifted left by the total causal delay of the pipeline
    and snapped to the largest |raw| sample within ±75 ms. The detections
    must be sorted, as ``detect`` and ``detect_pt`` return them; the output
    is clipped to the record bounds and strictly increasing: detections that
    snap onto one apex collapse into the first of them, which keeps its tag.

    ``sources``, when given a list, receives for each returned peak the
    index into ``detections`` of the detection it came from.
    """
    if len(raw) == 0 or len(detections.r_peaks) == 0:
        return np.empty(0, dtype=np.int64)
    total_delay = sum(stage_delays.values())
    w = ms_to_samples(LOCALIZE_HALF_WINDOW_S * 1000.0, fs)
    # Sorted centres with equal windows snap to non-decreasing apexes.
    mapped = _window_argmax(np.abs(raw, dtype=np.float64), w, np.asarray(
        detections.r_peaks, dtype=np.int64) - total_delay)
    kept = np.flatnonzero(np.diff(mapped, prepend=-1))
    if sources is not None:
        sources.extend(kept.tolist())
    return mapped[kept]
