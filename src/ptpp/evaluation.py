"""Beat matching, pooled metrics, synthetic records and timing."""

from __future__ import annotations

import math
import numbers
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ProcessingError
from .io import AnnotationSet, Channel, Record
from .pipeline import ms_to_samples
from .runner import run_detector

Schedule = Union[float, Sequence]


@dataclass
class MatchReport:
    record_id: str
    tp: int
    fp: int
    fn: int
    matched_pairs: list[tuple[int, int]]  # (reference index, detected index)
    tolerance_ms: float


@dataclass
class Metrics:
    """Pooled detection quality. Fields are None when their denominator is
    empty (e.g. PPV with no detections at all)."""

    ppv: Optional[float]
    sensitivity: Optional[float]
    f_score: Optional[float]
    fp_rate: Optional[float]
    fn_rate: Optional[float]
    execution_time_s: float


def match_beats(detected: Sequence[int], reference: AnnotationSet, fs: float,
                tolerance_ms: float = 100.0,
                record_id: str = "") -> MatchReport:
    """Greedy in-order one-to-one pairing of detections with reference beats.

    A detection within ``tolerance_ms`` (inclusive) of an unmatched reference
    beat counts as a true positive; leftovers are false positives/negatives.
    With the tolerance below half the minimum beat spacing this equals the
    optimal assignment.
    """
    if not 0 <= tolerance_ms < math.inf:  # rejects NaN too
        raise ConfigError(
            f"tolerance must be finite and >= 0 ms, got {tolerance_ms}")
    if not 0 < fs < math.inf:
        raise ConfigError(
            f"sampling rate must be positive and finite, got {fs}")
    det = np.asarray(detected, dtype=np.int64)
    ref = np.asarray(reference.beat_samples, dtype=np.int64)
    if np.any(det[1:] < det[:-1]) or np.any(ref[1:] < ref[:-1]):
        raise ProcessingError("match_beats requires sorted index lists")
    tol = ms_to_samples(tolerance_ms, fs, minimum=0)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < len(ref) and j < len(det):
        r, d = ref.item(i), det.item(j)
        delta = d - r
        if abs(delta) <= tol:
            pairs.append((r, d))
            i += 1
            j += 1
        elif delta < 0:
            j += 1  # detection matches nothing -> FP
        else:
            i += 1  # reference got no detection -> FN
    tp = len(pairs)
    return MatchReport(record_id=record_id, tp=tp, fp=len(det) - tp,
                       fn=len(ref) - tp, matched_pairs=pairs,
                       tolerance_ms=tolerance_ms)


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def metrics(reports: Sequence[MatchReport],
            execution_time_s: float = 0.0) -> Metrics:
    """Pool TP/FP/FN sums across records, then form the ratio metrics.

    Pooling happens before the division, so records with many beats weigh
    more — this is not a mean of per-record percentages.
    """
    if not reports:
        raise ProcessingError("metrics needs at least one match report")
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    ppv = _ratio(tp, tp + fp)
    sens = _ratio(tp, tp + fn)
    if ppv is not None and sens is not None and (ppv + sens) > 0:
        f_score: Optional[float] = 2.0 * ppv * sens / (ppv + sens)
    else:
        f_score = None
    return Metrics(ppv=ppv, sensitivity=sens, f_score=f_score,
                   fp_rate=_ratio(fp, tp + fp), fn_rate=_ratio(fn, tp + fn),
                   execution_time_s=float(execution_time_s))


@dataclass
class SynthSpec:
    """Recipe for a deterministic synthetic trace with known apexes.

    ``heart_rate_bpm`` is a number or a piecewise schedule
    ``[[start_s, bpm], ...]``; ``qrs_amplitude_mv`` is a number, a per-beat
    cycle ``[a0, a1, ...]`` or a piecewise schedule ``[[start_s, amp], ...]``.
    ``spike`` scales the single beat closest to the given time.
    """

    fs: float = 360.0
    duration_s: float = 60.0
    heart_rate_bpm: Schedule = 80.0
    qrs_amplitude_mv: Schedule = 1.0
    qrs_width_ms: float = 80.0
    t_wave: bool = True
    t_wave_amplitude: float = 0.3  # relative to the beat's QRS amplitude
    t_wave_delay_ms: float = 300.0
    t_wave_width_ms: float = 160.0
    noise_snr_db: Optional[float] = None
    spike: Optional[tuple[float, float]] = None  # (time_s, scale)
    rr_jitter_frac: float = 0.0
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown SynthSpec field(s): {sorted(unknown)}")
        spec = cls(**raw)
        spec.validate()
        if spec.spike is not None:
            spec.spike = (float(spec.spike[0]), float(spec.spike[1]))
        return spec

    def _bpm_values(self) -> list[float]:
        if _is_number(self.heart_rate_bpm):
            return [float(self.heart_rate_bpm)]
        return [float(pair[1]) for pair in self.heart_rate_bpm]

    def validate(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            has_shape, shape = _SPEC_SHAPES.get(name, (_is_number, "a number"))
            if not has_shape(value):
                raise ConfigError(f"{name} must be {shape}, got {value!r}")
            for number in _numbers(value):
                if not math.isfinite(number):
                    raise ConfigError(f"{name} must be finite, got {number!r}")
        if self.fs <= 0 or self.duration_s <= 0:
            raise ConfigError("fs and duration_s must be positive")
        n = self.duration_s * self.fs
        if not (math.isfinite(n) and round(n) >= 1):
            raise ConfigError(f"duration_s * fs must round to a finite "
                              f"sample count >= 1, got {n!r}")
        for bpm in self._bpm_values():
            if not 20.0 < bpm <= 260.0:
                raise ConfigError(f"heart rate {bpm} outside (20, 260] bpm")
        if self.qrs_width_ms <= 0 or self.t_wave_width_ms <= 0:
            raise ConfigError("pulse widths must be positive")
        if self.t_wave_delay_ms <= 0:
            raise ConfigError("t_wave_delay_ms must be positive")
        if not 0.0 <= self.rr_jitter_frac < 0.5:
            raise ConfigError("rr_jitter_frac must lie in [0, 0.5)")


def _is_number(value) -> bool:
    # A bool is an int to Python but not a number in a spec, and an int past
    # the float range would overflow in synth_ecg's float arithmetic. NaN and
    # inf pass here; validate() names them as not finite.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral)
                     and abs(value) > sys.float_info.max))


def _is_list_of(value, item_ok, length=None) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and length in (None, len(value)) and all(map(item_ok, value)))


def _is_schedule(value) -> bool:  # [[start_s, value], ...]
    return _is_list_of(value, lambda pair: _is_list_of(pair, _is_number, 2))


# The JSON shape each spec field takes where it is not simply a number.
_SPEC_SHAPES = {
    "seed": (lambda v: isinstance(v, (int, np.integer))
             and not isinstance(v, bool) and v >= 0, "an integer >= 0"),
    "heart_rate_bpm": (lambda v: _is_number(v) or _is_schedule(v),
                       "a number or [[start_s, bpm], ...]"),
    "qrs_amplitude_mv": (lambda v: _is_number(v) or _is_schedule(v)
                         or _is_list_of(v, _is_number),
                         "a number, [a0, a1, ...] or [[start_s, amp], ...]"),
    "t_wave": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "noise_snr_db": (lambda v: v is None or _is_number(v), "a number or null"),
    "spike": (lambda v: v is None or _is_list_of(v, _is_number, 2),
              "null or [time_s, scale]"),
}


def _numbers(value) -> Iterator[float]:
    """Every number in a spec field, with schedules and pairs flattened."""
    if _is_number(value):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)


def _piecewise(schedule: Sequence, t: float) -> float:
    value = float(schedule[0][1])
    for start, v in schedule:
        if t >= float(start):
            value = float(v)
    return value


def _bpm_at(spec: SynthSpec, t: float) -> float:
    if _is_number(spec.heart_rate_bpm):
        return float(spec.heart_rate_bpm)
    return _piecewise(spec.heart_rate_bpm, t)


def _amplitude_for(spec: SynthSpec, beat_index: int, t: float) -> float:
    amp = spec.qrs_amplitude_mv
    if _is_number(amp):
        return float(amp)
    if len(amp) and isinstance(amp[0], (list, tuple)):
        return _piecewise(amp, t)
    return float(amp[beat_index % len(amp)])


def synth_ecg(spec: SynthSpec) -> tuple[Record, AnnotationSet]:
    """Render ``spec`` into a Record plus ground-truth apex annotations.

    Each beat is a Mexican-hat pulse (biphasic, apex exactly on the
    annotated sample) with an optional Gaussian T hump trailing it; white
    noise, when requested, is sized against the clean signal's mean power.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    fs = float(spec.fs)
    n = int(round(spec.duration_s * fs))
    sigma_q = spec.qrs_width_ms / 2000.0  # main lobe spans ±sigma
    sigma_t = spec.t_wave_width_ms / 4000.0
    t_delay = spec.t_wave_delay_ms / 1000.0
    lead_in = max(0.4, 3.5 * sigma_q)
    tail = 3.0 * sigma_q + (t_delay + 3.0 * sigma_t if spec.t_wave else 0.0) + 0.05

    beat_times: list[float] = []
    t = lead_in
    while t <= spec.duration_s - tail:
        beat_times.append(t)
        rr = 60.0 / _bpm_at(spec, t)
        if spec.rr_jitter_frac:
            rr *= float(np.clip(1.0 + spec.rr_jitter_frac * rng.standard_normal(),
                                0.5, 1.5))
        t += rr

    amps = [_amplitude_for(spec, k, tb) for k, tb in enumerate(beat_times)]
    if spec.spike is not None and beat_times:
        target = int(np.argmin([abs(tb - spec.spike[0]) for tb in beat_times]))
        amps[target] *= spec.spike[1]

    x = np.zeros(n)
    apexes: list[int] = []
    half_q = int(3.0 * sigma_q * fs) + 1
    half_t = int(3.0 * sigma_t * fs) + 1
    for tb, amp in zip(beat_times, amps):
        c = int(tb * fs + 0.5)
        lo, hi = max(0, c - half_q), min(n, c + half_q + 1)
        tau = (np.arange(lo, hi) - c) / fs
        x[lo:hi] += amp * (1.0 - (tau / sigma_q) ** 2) * np.exp(
            -0.5 * (tau / sigma_q) ** 2)
        if spec.t_wave:
            ct = c + int(t_delay * fs + 0.5)
            lo_t, hi_t = max(0, ct - half_t), min(n, ct + half_t + 1)
            tau_t = (np.arange(lo_t, hi_t) - ct) / fs
            x[lo_t:hi_t] += amp * spec.t_wave_amplitude * np.exp(
                -0.5 * (tau_t / sigma_t) ** 2)
        if 0 <= c < n:
            apexes.append(c)

    if spec.noise_snr_db is not None:
        power = float(np.mean(x * x))
        sigma_n = np.sqrt(power / 10.0 ** (spec.noise_snr_db / 10.0))
        x = x + rng.normal(0.0, sigma_n, n)

    record = Record(sampling_rate_hz=fs,
                    channels=[Channel("synthetic", x, 1.0, 0)],
                    duration_samples=n)
    annotations = AnnotationSet(
        beat_samples=np.asarray(apexes, dtype=np.int64),
        beat_labels=None, source_format="synthetic")
    return record, annotations


def timed_call(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` and the wall-clock seconds it took."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def time_detector(detector: str, samples: np.ndarray, fs: float, *,
                  repeats: int = 5, **configs) -> float:
    """Median wall-clock seconds of ``run_detector(detector, samples, fs,
    **configs)``: pipeline + decision + localization, file I/O excluded,
    over at least five runs."""
    times = [timed_call(run_detector, detector, samples, fs, **configs)[1]
             for _ in range(max(5, repeats))]
    return float(statistics.median(times))
