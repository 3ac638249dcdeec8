"""Shared test utilities.

Holds the frozen synthetic stress-scenario recipes used by both the
comparative detector tests and the acceptance suite, independent
re-implementations of the WFDB byte formats (used as oracles against the
parsers in :mod:`ptpp.io`), the loops that ``load_csv``, ``localize_rpeaks``,
candidate thinning and the band-channel amplitude replaced (oracles for their
vectorised forms), the full-copy convolution, derivative and WFDB decoders
(oracles for their leaner forms), the per-row ``stages`` and ``save_csv``
writers (oracles for the block writer), the per-section scipy band-pass
delay (oracle for its closed form), both decision loops written out with the
public threshold rules (oracle for the shared loop), and the locator for the
optional real-record spot check.
"""

from __future__ import annotations

import bisect
import collections
import csv
import dataclasses
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.signal

import ptpp
import ptpp.cli
import ptpp.io

FS = 360.0
DATA_ROOT_ENV = "PTPP_DATA_ROOT"

# ---------------------------------------------------------------------------
# Frozen synthetic scenario recipes.
#
# Each recipe targets one known failure mode of the classic detector while
# staying inside the improved detector's operating envelope. The parameters
# are pinned (seed included) so the comparative assertions are reproducible.

#: 60 s, 80 bpm, clean, T-waves on: the all-beats-found baseline scenario.
CLEAN_SPEC = ptpp.SynthSpec(duration_s=60.0)

#: Every 4th beat shrunk to 0.45x under tall T-waves. The tall T-waves keep
#: the classic detector's noise estimate (and so its first threshold) high
#: enough to hide the small beats; the slope test protects the improved
#: detector from the T-waves themselves and its low-amplitude recovery branch
#: picks the small beats back up.
LOW_AMP_SPEC = ptpp.SynthSpec(
    duration_s=90.0,
    qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.45],
    t_wave_amplitude=1.4,
    noise_snr_db=20.0,
    seed=11,
)

#: Slow rhythm with prominent T-waves whose 70 ms mean slope lands between
#: the two detectors' slope cutoffs (0.5 vs 0.6 of the preceding beat), so
#: the classic detector accepts every T-wave and the improved one rejects
#: them all.
TALL_T_SPEC = ptpp.SynthSpec(
    duration_s=60.0,
    heart_rate_bpm=50.0,
    t_wave_amplitude=1.3,
    t_wave_delay_ms=300.0,
    t_wave_width_ms=135.0,
    seed=12,
)

#: 30 s stretch of 0.3x beats between normal stretches. The classic detector
#: never adapts down (its threshold halving needs an RR history it cannot
#: form) while the long-gap recovery branch re-seeds the improved detector.
DROPOUT_SPEC = ptpp.SynthSpec(
    duration_s=90.0,
    qrs_amplitude_mv=[[0.0, 1.0], [30.0, 0.3], [60.0, 1.0]],
    noise_snr_db=20.0,
    seed=13,
)

#: One 10x spike inside the 2 s threshold-initialisation window: both
#: detectors start with a hugely inflated first threshold, but only the
#: improved one walks back down via search-back inserts.
SPIKE_SPEC = ptpp.SynthSpec(
    duration_s=120.0,
    spike=(1.9, 10.0),
    noise_snr_db=20.0,
    seed=14,
)


def score(detector: str, record: ptpp.Record, truth: ptpp.AnnotationSet,
          tolerance_ms: float = 100.0):
    """Run ``detector`` on channel 0 and match against ``truth``."""
    run = ptpp.run_detector(detector, record.channels[0].samples,
                            record.sampling_rate_hz)
    report = ptpp.match_beats(run.r_peaks, truth, record.sampling_rate_hz,
                              tolerance_ms=tolerance_ms)
    return run, report


def f_score(report: ptpp.MatchReport) -> float:
    value = ptpp.metrics([report]).f_score
    assert value is not None
    return value


# ---------------------------------------------------------------------------
# Independent WFDB encoders (oracles).

def sign_extend_12(code: int) -> int:
    """Two's-complement value of a 12-bit code, by table logic."""
    return code - 4096 if code >= 2048 else code


def encode212(values) -> bytes:
    """Pack 12-bit two's-complement samples, two per 3-byte group.

    Layout: byte0 = low 8 bits of sample A; byte1 = high nibble of A (low
    4 bits) and high nibble of B (high 4 bits); byte2 = low 8 bits of B.
    """
    vals = [int(v) & 0xFFF for v in values]
    if len(vals) % 2:
        vals.append(0)
    out = bytearray()
    for a, b in zip(vals[::2], vals[1::2]):
        out.append(a & 0xFF)
        out.append(((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4))
        out.append(b & 0xFF)
    return bytes(out)


def atr_word(code: int, delta: int) -> bytes:
    """One MIT annotation word: 10-bit time delta, 6-bit type code."""
    return bytes([delta & 0xFF, ((delta >> 8) & 0x03) | ((code & 0x3F) << 2)])


class AtrStream:
    """Builds MIT annotation byte streams for parser tests."""

    SKIP, NUM, SUB, CHAN, AUX = 59, 60, 61, 62, 63

    def __init__(self):
        self._chunks: list[bytes] = []

    def ann(self, code: int, delta: int) -> "AtrStream":
        self._chunks.append(atr_word(code, delta))
        return self

    def skip(self, offset: int) -> "AtrStream":
        # SKIP carries a signed 32-bit operand: high 16 bits first, each
        # half little-endian within its word.
        value = offset & 0xFFFFFFFF
        hi, lo = (value >> 16) & 0xFFFF, value & 0xFFFF
        self._chunks.append(atr_word(self.SKIP, 0))
        self._chunks.append(bytes([hi & 0xFF, (hi >> 8) & 0xFF]))
        self._chunks.append(bytes([lo & 0xFF, (lo >> 8) & 0xFF]))
        return self

    def aux(self, text: str) -> "AtrStream":
        payload = text.encode("ascii")
        self._chunks.append(atr_word(self.AUX, len(payload)))
        if len(payload) % 2:
            payload += b"\x00"
        self._chunks.append(payload)
        return self

    def modifier(self, kind: str, value: int = 0) -> "AtrStream":
        code = {"num": self.NUM, "sub": self.SUB, "chan": self.CHAN}[kind]
        self._chunks.append(atr_word(code, value))
        return self

    def to_bytes(self, terminated: bool = True) -> bytes:
        tail = b"\x00\x00" if terminated else b""
        return b"".join(self._chunks) + tail


def make_header(record_name: str, fs: float, n_samples: int,
                channel_lines) -> str:
    lines = [f"{record_name} {len(channel_lines)} {fs:g} {n_samples}"]
    lines.extend(channel_lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Per-line reference implementations (oracles).

def load_csv_reference(path: str | Path) -> np.ndarray:
    """The samples ``ptpp.load_csv`` read with its original per-line loop."""
    path = Path(path)
    values = []
    first_content_line = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) > 2:
                raise ptpp.ParseError(f"{path}: line {lineno}: expected "
                                      f"'value' or 'index,value', got {line!r}")
            try:
                value = float(fields[-1])
            except ValueError:
                if first_content_line:  # a column-header row is fine
                    first_content_line = False
                    continue
                raise ptpp.ParseError(
                    f"{path}: line {lineno}: not a number: {fields[-1]!r}"
                ) from None
            first_content_line = False
            if not math.isfinite(value):
                raise ptpp.ParseError(
                    f"{path}: line {lineno}: non-finite sample")
            values.append(value)
    if not values:
        raise ptpp.ParseError(f"{path}: no samples found")
    return np.asarray(values, dtype=np.float64)


def count_commas_reference(data: bytes) -> tuple[int, int]:
    """The commas in ``data`` and its universal-newline line count."""
    return (data.count(b","),
            data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1)


def localize_reference(raw, r_peaks, total_delay: int, fs: float):
    """``ptpp.localize_rpeaks`` as its original loop: (peaks, sources)."""
    x = np.abs(np.asarray(raw, dtype=np.float64))
    n = len(x)
    if n == 0 or len(r_peaks) == 0:
        return np.empty(0, dtype=np.int64), []
    w = ptpp.ms_to_samples(75.0, fs)
    mapped: list[int] = []
    for det in r_peaks:
        c = min(max(int(det) - total_delay, 0), n - 1)
        lo = max(0, c - w)
        hi = min(n, c + w + 1)
        mapped.append(lo + int(np.argmax(x[lo:hi])))
    kept: list[int] = []  # indices into mapped
    for k, j in enumerate(mapped):
        if not kept or j > mapped[kept[-1]]:
            kept.append(k)
            continue
        floor = mapped[kept[-2]] if len(kept) > 1 else -1
        if x[j] > x[mapped[kept[-1]]] and j > floor:
            kept[-1] = k
    return np.asarray([mapped[k] for k in kept], dtype=np.int64), kept


def thinned_maxima_reference(x: np.ndarray, min_sep: int) -> np.ndarray:
    """Interior local maxima of ``x`` that are >= 0, greedily thinned so
    survivors are at least ``min_sep`` apart; on conflict the larger
    amplitude wins and equal amplitudes keep the earlier index."""
    if len(x) < 3:
        return np.empty(0, dtype=np.int64)
    rising = x[1:-1] > x[:-2]
    falling = x[1:-1] >= x[2:]
    at_least_zero = x[1:-1] >= 0
    peaks = np.nonzero(rising & falling & at_least_zero)[0] + 1
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


def band_peak_reference(filtered, i: int, align: int, fs: float) -> float:
    """The band-passed amplitude the decision loop paired with integrated
    index ``i``, as its original per-candidate slice max."""
    abs_filt = np.abs(np.asarray(filtered, dtype=np.float64))
    n = len(abs_filt)
    half_win = ptpp.ms_to_samples(75.0, fs)
    c = min(max(i - align, 0), n - 1)
    lo = max(0, c - half_win)
    return float(abs_filt[lo:min(n, c + half_win + 1)].max())


# ---------------------------------------------------------------------------
# The decision loops written out literally (oracle for ``_decide``): one
# plain loop per detector, every threshold step through the public rules.

def _halved_reference(state: ptpp.ThresholdState) -> ptpp.ThresholdState:
    threshold1 = 0.5 * state.threshold1
    return dataclasses.replace(state, threshold1=threshold1,
                               threshold2=state.t2_ratio * threshold1)


def decide_reference(stages: ptpp.StageOutputs, fs: float, cfg,
                     detector: str):
    """``(DetectionResult, trace)`` of ``detect`` (``detector`` "ptpp",
    ``cfg`` a ``DetectorConfig``) or ``detect_pt`` ("pt", a ``PtConfig``)."""
    if detector == "ptpp":
        return _decide_ptpp_reference(stages, fs, cfg)
    return _decide_pt_reference(stages, fs, cfg)


def _align(stages: ptpp.StageOutputs) -> int:
    # The band-passed signal lags the integrated one by every later stage.
    delays = stages.stage_delays_samples
    return sum(v for k, v in delays.items() if k != "bandpass")


def _decide_ptpp_reference(stages, fs, cfg):
    cfg.validate()
    integ = np.asarray(stages.integrated, dtype=np.float64)
    filt = np.asarray(stages.filtered, dtype=np.float64)
    align = _align(stages)
    candidates = [int(c) for c in ptpp.find_candidates(integ, fs, cfg)]
    state_i = ptpp.init_thresholds(integ, fs, cfg, t2_ratio=0.4)
    state_f = ptpp.init_thresholds(np.abs(filt), fs, cfg, t2_ratio=0.4)
    min_sep = ptpp.ms_to_samples(cfg.min_peak_separation_ms, fs)
    tw_rr = ptpp.ms_to_samples(cfg.twave_window_ms, fs)
    blank = ptpp.ms_to_samples(cfg.post_peak_blank_ms, fs)
    sb_abs = ptpp.ms_to_samples(cfg.searchback_abs_s * 1000.0, fs)
    spike_gap = ptpp.ms_to_samples(cfg.spike_recovery_s * 1000.0, fs)
    rrs: collections.deque = collections.deque(maxlen=cfg.rr_history_beats)
    beats: list[int] = []
    provenance: list[str] = []
    rejected: list[tuple[int, str]] = []
    trace: list = []

    def add_beat(j: int, tag: str) -> None:
        # The RR band (0, inf) holds every interval: no halving here.
        if beats:
            rrs.append(j - beats[-1])
        beats.append(j)
        provenance.append(tag)

    for k, i in enumerate(candidates):
        peak_i = float(integ[i])
        peak_f = band_peak_reference(filt, i, align, fs)
        rr = i - beats[-1] if beats else None
        rr_mean = (sum(rrs) / len(rrs) if len(rrs) == rrs.maxlen else None)

        passes = peak_i > state_i.threshold1 and peak_f > state_f.threshold1
        is_twave = False
        if passes and rr is not None and (
                rr < tw_rr or (rr_mean is not None and rr < 0.5 * rr_mean)):
            cur = ptpp.mean_slope(filt, max(0, i - align), fs, cfg)
            prev = ptpp.mean_slope(filt, max(0, beats[-1] - align), fs, cfg)
            is_twave = cur < cfg.twave_slope_ratio * prev
        accept = passes and not is_twave

        inserted_at = None
        if rr is not None and (rr > sb_abs or (
                rr_mean is not None
                and rr > cfg.searchback_rr_factor * rr_mean)):
            left = beats[-1] + blank
            right = i - min_sep if accept else i
            if left <= right:
                j = left + int(np.argmax(integ[left:right + 1]))
                wmax = float(integ[j])
                around = integ[beats[-3:] + candidates[k:k + 3]]
                tag = None
                if wmax > ptpp.threshold3(state_i, float(np.mean(around))):
                    tag = "searchback_t3"
                elif (rr > spike_gap
                      and wmax > cfg.spike_recovery_t2_frac
                      * state_i.threshold2):
                    tag = "spike_recovery"
                if tag is not None:
                    state_i = ptpp.update_rule2(state_i, wmax)
                    state_f = ptpp.update_rule2(
                        state_f, band_peak_reference(filt, j, align, fs))
                    add_beat(j, tag)
                    inserted_at = j

        if accept:
            state_i = ptpp.update_rule1(state_i, peak_i, is_signal=True)
            state_f = ptpp.update_rule1(state_f, peak_f, is_signal=True)
            add_beat(i, "threshold1")
        elif is_twave or inserted_at != i:
            rejected.append((i, "t_wave" if is_twave else "below_threshold"))
            state_i = ptpp.update_rule1(state_i, peak_i, is_signal=False)
            state_f = ptpp.update_rule1(state_f, peak_f, is_signal=False)
        trace.append((i, state_i, state_f))

    return ptpp.DetectionResult(np.asarray(beats, dtype=np.int64), provenance,
                                rejected), trace


def _decide_pt_reference(stages, fs, cfg):
    cfg.validate()
    integ = np.asarray(stages.integrated, dtype=np.float64)
    filt = np.asarray(stages.filtered, dtype=np.float64)
    align = _align(stages)
    spacing = ptpp.DetectorConfig(min_peak_separation_ms=cfg.refractory_ms)
    candidates = [int(c) for c in ptpp.find_candidates(integ, fs, spacing)]
    state = ptpp.init_thresholds(integ, fs, t2_ratio=0.5)
    refractory = ptpp.ms_to_samples(cfg.refractory_ms, fs)
    tw_rr = ptpp.ms_to_samples(cfg.twave_window_ms, fs)
    rrs: collections.deque = collections.deque(maxlen=8)
    beats: list[int] = []
    provenance: list[str] = []
    rejected: list[tuple[int, str]] = []
    trace: list = []

    def add_beat(j: int, tag: str) -> None:
        nonlocal state
        if beats:
            rr = j - beats[-1]
            if len(rrs) == rrs.maxlen:
                rr_mean = sum(rrs) / len(rrs)
                if not (cfg.rr_low_frac * rr_mean <= rr
                        <= cfg.rr_high_frac * rr_mean):
                    state = _halved_reference(state)
            rrs.append(rr)
        beats.append(j)
        provenance.append(tag)

    for i in candidates:
        peak = float(integ[i])
        rr = i - beats[-1] if beats else None
        rr_mean = (sum(rrs) / len(rrs) if len(rrs) == rrs.maxlen else None)

        passes = peak > state.threshold1
        is_twave = False
        if passes and rr is not None and rr < tw_rr:
            cur = ptpp.mean_slope(filt, max(0, i - align), fs)
            prev = ptpp.mean_slope(filt, max(0, beats[-1] - align), fs)
            is_twave = cur < cfg.twave_slope_ratio * prev
        accept = passes and not is_twave

        inserted_at = None
        if (rr is not None and rr_mean is not None
                and rr > cfg.searchback_rr_factor * rr_mean):
            left = beats[-1] + refractory
            right = i - refractory if accept else i
            if left <= right:
                j = left + int(np.argmax(integ[left:right + 1]))
                if float(integ[j]) > state.threshold2:
                    # Rule 1 first: the halving in add_beat outlives it.
                    state = ptpp.update_rule1(state, float(integ[j]),
                                              is_signal=True)
                    add_beat(j, "searchback_t2")
                    inserted_at = j

        if accept:
            state = ptpp.update_rule1(state, peak, is_signal=True)
            add_beat(i, "threshold1")
        elif is_twave or inserted_at != i:
            rejected.append((i, "t_wave" if is_twave else "below_threshold"))
            state = ptpp.update_rule1(state, peak, is_signal=False)
        trace.append((i, state))

    return ptpp.DetectionResult(np.asarray(beats, dtype=np.int64), provenance,
                                rejected), trace


# ---------------------------------------------------------------------------
# Full-copy reference implementations (oracles): the convolution, the
# derivative and the WFDB decoders as they were before they stopped holding
# full-length copies.

def causal_convolve_reference(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``ptpp.pipeline._causal_convolve`` over a full-length padded copy."""
    # Trailing convolution with the left edge replicated, so y[n] depends on
    # x[n - k] only and the output keeps the input length.
    k = len(kernel)
    padded = np.concatenate([np.full(k - 1, x[0]), x])
    return np.convolve(padded, kernel, mode="valid")


def derivative_reference(samples: np.ndarray, fs: float) -> np.ndarray:
    """``ptpp.derivative`` over a full-length edge-padded copy."""
    x = np.asarray(samples, dtype=np.float64)
    xp = np.pad(x, 2, mode="edge")
    return (-xp[:-4] - 2.0 * xp[1:-3] + 2.0 * xp[3:-1] + xp[4:]) * (fs / 8.0)


def sos_group_delay_reference(sos: np.ndarray, fs: float,
                              freq_hz: float) -> float:
    """``ptpp.pipeline._sos_group_delay`` as scipy's ``group_delay`` reads
    it, one section at a time."""
    total = 0.0
    for section in sos:
        # butter folds the filter gain into the first section's numerator,
        # and scipy's near-singular warning tests an absolute size. The
        # delay does not depend on the numerator's scale, so drop it.
        b, a = section[:3], section[3:]
        _, gd = scipy.signal.group_delay((b / np.abs(b).max(), a),
                                         w=[freq_hz], fs=fs)
        total += float(gd[0])
    return total


def _to_millivolts_reference(raw: np.ndarray,
                             header: ptpp.io.HeaderInfo) -> ptpp.Record:
    channels = []
    for i, ch in enumerate(header.channels):
        mv = (raw[:, i] - ch.baseline) / ch.gain
        channels.append(ptpp.io.Channel(label=ch.label, samples=mv,
                                        gain=ch.gain, baseline=ch.baseline))
    return ptpp.Record(sampling_rate_hz=header.sampling_rate_hz,
                       channels=channels, duration_samples=raw.shape[0])


def decode_format212_reference(data: bytes,
                               header: ptpp.io.HeaderInfo) -> ptpp.Record:
    """``ptpp.decode_format212`` with its ``(pairs, 3)`` int32 upcast and
    float64 ``(n, channels)`` copy."""
    for ch in header.channels:
        if ch.format_code != 212:
            raise ptpp.UnsupportedFormatError(
                f"channel {ch.label!r} declares format {ch.format_code}, "
                f"expected 212")
    total = header.n_samples * header.n_channels
    need = (3 * total + 1) // 2  # ceil(1.5 * total)
    if len(data) < need:
        raise ptpp.ParseError(
            f"truncated format-212 stream: have {len(data)} "
            f"bytes, need {need} (failed at byte {len(data)})")
    pairs = (total + 1) // 2
    buf = np.frombuffer(data, dtype=np.uint8, count=min(len(data), 3 * pairs))
    if len(buf) < 3 * pairs:  # tolerate a clipped final pad byte
        buf = np.concatenate([buf, np.zeros(3 * pairs - len(buf), np.uint8)])
    groups = buf.reshape(-1, 3).astype(np.int32)
    first = groups[:, 0] | ((groups[:, 1] & 0x0F) << 8)
    second = groups[:, 2] | ((groups[:, 1] & 0xF0) << 4)
    flat = np.empty(2 * pairs, dtype=np.int32)
    flat[0::2] = first
    flat[1::2] = second
    flat = flat[:total]
    flat[flat > 2047] -= 4096  # sign-extend from bit 11
    raw = flat.reshape(header.n_samples, header.n_channels).astype(np.float64)
    return _to_millivolts_reference(raw, header)


def decode_format16_reference(data: bytes,
                              header: ptpp.io.HeaderInfo) -> ptpp.Record:
    """``ptpp.decode_format16`` with its float64 ``(n, channels)`` copy."""
    for ch in header.channels:
        if ch.format_code != 16:
            raise ptpp.UnsupportedFormatError(
                f"channel {ch.label!r} declares format {ch.format_code}, "
                f"expected 16")
    total = header.n_samples * header.n_channels
    need = 2 * total
    if len(data) < need:
        raise ptpp.ParseError(
            f"truncated format-16 stream: have {len(data)} bytes,"
            f" need {need} (failed at byte {len(data)})")
    flat = np.frombuffer(data, dtype="<i2", count=total)
    raw = flat.reshape(header.n_samples, header.n_channels).astype(np.float64)
    return _to_millivolts_reference(raw, header)


def load_atr_reference(path: Path,
                       beat_codes: dict[int, str]) -> ptpp.AnnotationSet:
    """``ptpp.io._load_atr_annotations`` with its numpy word array read one
    numpy scalar at a time."""
    data = path.read_bytes()
    if len(data) % 2:
        data = data[:-1]
    words = np.frombuffer(data, dtype=np.uint8).reshape(-1, 2)
    indices: list[int] = []
    labels: list[str] = []
    time = 0
    pending_skip = 0
    unknown = 0
    i = 0
    n = len(words)
    while i < n:
        b0, b1 = int(words[i, 0]), int(words[i, 1])
        code = b1 >> 2
        delta = b0 | ((b1 & 0x03) << 8)
        if code == 0 and delta == 0:  # end of annotation stream
            break
        if code == ptpp.io._SKIP:
            if i + 2 >= n:
                raise ptpp.ParseError(
                    f"{path}: truncated skip interval at word {i}")
            hi = int(words[i + 1, 0]) << 16 | int(words[i + 1, 1]) << 24
            lo = int(words[i + 2, 0]) | int(words[i + 2, 1]) << 8
            value = hi | lo
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            pending_skip += value
            i += 3
            continue
        if code == ptpp.io._AUX:
            i += 1 + (delta + 1) // 2  # aux text is padded to a whole word
            continue
        if code in (ptpp.io._NUM, ptpp.io._SUB, ptpp.io._CHAN):
            i += 1
            continue
        time += pending_skip + delta
        pending_skip = 0
        if time < 0:
            raise ptpp.ParseError(
                f"{path}: annotation time went negative at word {i}")
        if code in beat_codes:
            if indices and time <= indices[-1]:
                raise ptpp.ParseError(f"{path}: beat samples not strictly "
                                      f"increasing at word {i}")
            indices.append(time)
            labels.append(beat_codes[code])
        elif code not in ptpp.io._KNOWN_NONBEAT_CODES:
            unknown += 1
        i += 1
    if unknown:
        ptpp.io.logger.warning(
            "%s: skipped %d annotation(s) with unknown type codes",
            path, unknown)
    return ptpp.AnnotationSet(beat_samples=np.asarray(indices, dtype=np.int64),
                              beat_labels=labels, source_format="wfdb_atr")


# ---------------------------------------------------------------------------
# Beat matching.

def match_beats_reference(detected, reference: ptpp.AnnotationSet, fs: float,
                          tolerance_ms: float = 100.0,
                          record_id: str = "") -> ptpp.MatchReport:
    """``ptpp.match_beats`` reading each index as ``int(arr[i])``."""
    if not 0 <= tolerance_ms < math.inf:  # rejects NaN too
        raise ptpp.ConfigError(
            f"tolerance must be finite and >= 0 ms, got {tolerance_ms}")
    det = np.asarray(detected, dtype=np.int64)
    ref = np.asarray(reference.beat_samples, dtype=np.int64)
    if np.any(det[1:] < det[:-1]) or np.any(ref[1:] < ref[:-1]):
        raise ptpp.ProcessingError("match_beats requires sorted index lists")
    # An integer distance is within floor(t) exactly when it is within t,
    # and a float t cannot overflow the way int(t) can.
    tol = tolerance_ms * fs / 1000.0 + 0.5
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < len(ref) and j < len(det):
        delta = int(det[j]) - int(ref[i])
        if abs(delta) <= tol:
            pairs.append((int(ref[i]), int(det[j])))
            i += 1
            j += 1
        elif delta < 0:
            j += 1  # detection matches nothing -> FP
        else:
            i += 1  # reference got no detection -> FN
    tp = len(pairs)
    return ptpp.MatchReport(record_id=record_id, tp=tp, fp=len(det) - tp,
                            fn=len(ref) - tp, matched_pairs=pairs,
                            tolerance_ms=tolerance_ms)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def stages_writer_reference(path: str | Path, samples: np.ndarray,
                            stages: ptpp.StageOutputs) -> None:
    """The file ``ptpp stages`` wrote with its per-row generator."""
    rows = ([i, repr(float(samples[i])), repr(float(stages.filtered[i])),
             repr(float(stages.derived[i])), repr(float(stages.squared[i])),
             repr(float(stages.smoothed[i])), repr(float(stages.integrated[i]))]
            for i in range(len(samples)))
    _write_csv(path, ptpp.cli.STAGES_HEADER, rows)


def save_csv_reference(record: ptpp.Record, path: str | Path,
                       channel: int = 0) -> None:
    """``ptpp.save_csv`` as its original per-line loop."""
    samples = record.channels[channel].samples
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_index,value\n")
        for i, v in enumerate(samples):
            fh.write(f"{i},{float(v)!r}\n")


# ---------------------------------------------------------------------------
# Optional real data.

def mitbih_record_paths(name: str = "100"):
    """Locate a real MIT-BIH record (header/signal/annotations) if present.

    Searches ``$PTPP_DATA_ROOT`` and ``tests/data``. Returns the header path
    or ``None``; the signal and annotation files must sit beside it.
    """
    roots = []
    env = os.environ.get(DATA_ROOT_ENV)
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).parent / "data")
    for root in roots:
        hea = root / f"{name}.hea"
        if hea.exists() and hea.with_suffix(".dat").exists():
            return hea
    return None


def traced_peak(run, x) -> int:
    """Peak bytes ``run(x)`` allocates beyond what is live when it starts."""
    run(x[:3600])  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(x)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
