"""Preprocessing chain shared by both detectors.

Five stages applied in order: Butterworth band-pass, five-point derivative,
squaring, flat-top smoothing and a trailing moving-window integral. Each
stage preserves length, and the accumulated group delay of every stage is
reported so detections can be mapped back onto the raw trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .errors import ConfigError, InputTooShortError, ProcessingError

# Flat-top window coefficients. These are the truncated five-term values in
# common circulation rather than the exact harris coefficients; they are kept
# verbatim so the kernel (and its slightly negative endpoints) reproduces the
# published response.
FLATTOP_A0 = 0.2155789
FLATTOP_A1 = 0.4166316
FLATTOP_A2 = 0.27726316
FLATTOP_A3 = 0.08357895
FLATTOP_A4 = 0.00694737

MIN_SMOOTH_SAMPLES = 5
GROUP_DELAY_PROBE_HZ = 10.0
# Highest band-pass order run. White noise filtered at fs 128/360/1000 Hz,
# 5-18 and 5-15 Hz, kept to the design's own response within 0.01% up to
# order 88; order 96 read 1.48x its rms, and order 120 up to 7000x.
MAX_FILTER_ORDER = 64


def ms_to_samples(ms: float, fs: float, minimum: int = 1) -> int | float:
    """Convert a duration to samples, rounding halves up, at least
    ``minimum``. A count too large for a float is ``math.inf``, which every
    caller reads as longer than the record."""
    n = ms * fs / 1000.0 + 0.5
    return n if math.isinf(n) else max(minimum, int(n))


@dataclass
class PipelineConfig:
    band_low_hz: float = 5.0
    band_high_hz: float = 18.0
    filter_order: int = 3
    smooth_window_ms: float = 60.0
    mwi_window_ms: float = 150.0
    smooth_enabled: bool = True  # the classic detector bypasses smoothing

    def validate(self, fs: float) -> None:
        if not 0 < fs < math.inf:  # rejects NaN too
            raise ConfigError(
                f"sampling rate must be positive and finite, got {fs}")
        if not 0 < self.band_low_hz < self.band_high_hz:
            raise ConfigError(
                f"band edges must satisfy 0 < low < high, got "
                f"({self.band_low_hz}, {self.band_high_hz})")
        if not 2 * self.band_low_hz / fs > 0:  # as the filter design sees it
            raise ConfigError(f"band_low_hz={self.band_low_hz} is 0 at "
                              f"fs={fs}")
        if self.band_high_hz >= fs / 2:
            raise ConfigError(
                f"band_high_hz={self.band_high_hz} must lie below the "
                f"Nyquist frequency {fs / 2}")
        if self.filter_order < 1:
            raise ConfigError("filter_order must be >= 1")
        for window in (self.smooth_window_ms, self.mwi_window_ms):
            if not 0 < window < math.inf:
                raise ConfigError("window durations must be positive and "
                                  f"finite, got {window}")


@dataclass
class StageOutputs:
    """Every intermediate signal plus the per-stage delay bookkeeping."""

    filtered: np.ndarray
    derived: np.ndarray
    squared: np.ndarray
    smoothed: np.ndarray
    integrated: np.ndarray
    stage_delays_samples: dict[str, int] = field(default_factory=dict)


def _design_sos(fs: float, config: PipelineConfig) -> np.ndarray:
    config.validate(fs)
    band = (config.band_low_hz, config.band_high_hz)
    with np.errstate(all="ignore"):
        try:
            sos = scipy.signal.butter(config.filter_order, band,
                                      btype="bandpass", fs=fs, output="sos")
        except OverflowError:  # the gain, k * bw**degree; refused below
            sos = np.zeros((1, 6))
    if not (np.isfinite(sos).all() and sos[0, :3].any()):  # gain inf/NaN/0
        raise ConfigError(f"order-{config.filter_order} Butterworth band-pass "
                          f"of {band} Hz at fs={fs} does not fit a float")
    if config.filter_order > MAX_FILTER_ORDER:
        raise ConfigError(f"order-{config.filter_order} Butterworth band-pass "
                          f"of {band} Hz at fs={fs} is above order "
                          f"{MAX_FILTER_ORDER}, past which the filtered "
                          f"output drifts from the design")
    return sos


def _sos_group_delay(sos: np.ndarray, fs: float, freq_hz: float) -> float:
    # Each numerator delays one sample (butter's zeros sit at z = ±1), each
    # denominator a -Re(Σ k a_k z^-k / Σ a_k z^-k). @ would map BLAS buffers.
    k = np.arange(3)
    az = sos[:, 3:] * np.exp(-2j * np.pi * freq_hz / fs * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        delay = float(len(sos) - ((az * k).sum(1) / az.sum(1)).real.sum())
    if not math.isfinite(delay):  # a pole at z = e^jw
        raise ProcessingError(f"band-pass delay undefined at {freq_hz:g} Hz")
    return delay


def _bandpass(samples: np.ndarray, fs: float,
              config: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    # The filtered signal and the one design that produced it.
    x = np.asarray(samples, dtype=np.float64)
    sos = _design_sos(fs, config)
    centre_hz = math.sqrt(config.band_low_hz * config.band_high_hz)
    delay = _sos_group_delay(sos, fs, centre_hz)
    if len(x) < delay:
        raise InputTooShortError(
            f"band-pass delay ({delay:.1f} samples at {centre_hz:g} Hz) "
            f"longer than signal ({len(x)})")
    return scipy.signal.sosfilt(sos, x), sos


def bandpass(samples: np.ndarray, fs: float, config: PipelineConfig) -> np.ndarray:
    """Apply the causal Butterworth band-pass. A record shorter than the
    filter's group delay at the band centre sqrt(low * high) is refused."""
    return _bandpass(samples, fs, config)[0]


def _five_point(xp: np.ndarray, out: np.ndarray, scale: float) -> None:
    # out[i] = (-xp[i] - 2xp[i+1] + 2xp[i+3] + xp[i+4]) * scale, in place
    # with one temporary, each operation in the order the expression reads
    # so every sample rounds exactly as the whole-array formula did.
    np.negative(xp[:-4], out=out)
    tmp = np.multiply(xp[1:-3], 2.0)
    out -= tmp
    np.multiply(xp[3:-1], 2.0, out=tmp)
    out += tmp
    out += xp[4:]
    out *= scale


def derivative(samples: np.ndarray, fs: float) -> np.ndarray:
    """Five-point derivative y(n) = (-x(n-2) - 2x(n-1) + 2x(n+1) + x(n+2)) / (8T).

    Boundary samples are handled by edge replication, so an interior linear
    ramp comes out exactly constant. Only the two samples at each end read
    a replicated copy, built from four samples rather than the whole input.
    """
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 5:
        raise InputTooShortError(
            f"derivative needs at least 5 samples, got {len(x)}")
    y = np.empty(len(x))
    scale = fs / 8.0
    _five_point(x, y[2:-2], scale)
    _five_point(np.pad(x[:4], (2, 0), mode="edge"), y[:2], scale)
    _five_point(np.pad(x[-4:], (0, 2), mode="edge"), y[-2:], scale)
    return y


def square(samples: np.ndarray) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    return x * x


def flattop_kernel(width_samples: int) -> np.ndarray:
    """Five-term flat-top window over one full period, normalised to unit sum."""
    if width_samples < MIN_SMOOTH_SAMPLES:
        raise ConfigError(
            f"flat-top width must be >= {MIN_SMOOTH_SAMPLES} samples, "
            f"got {width_samples}")
    n = np.arange(width_samples)
    psi = 2.0 * np.pi * n / width_samples
    w = (FLATTOP_A0
         - FLATTOP_A1 * np.cos(psi)
         + FLATTOP_A2 * np.cos(2.0 * psi)
         - FLATTOP_A3 * np.cos(3.0 * psi)
         + FLATTOP_A4 * np.cos(4.0 * psi))
    return w / w.sum()


def _causal_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Trailing convolution with the left edge replicated, so y[n] depends on
    # x[n - k] only and the output keeps the input length. Only the first
    # k - 1 outputs reach into the replicated edge: they are redone from a
    # padded head of 2k - 2 samples rather than from a padded full copy.
    k = len(kernel)
    y = np.convolve(x, kernel, mode="full")[:len(x)]
    if k > 1:
        head = np.concatenate([np.full(k - 1, x[0]), x[:k - 1]])
        y[:k - 1] = np.convolve(head, kernel, mode="valid")
    return y


def smooth(samples: np.ndarray, width_samples: int) -> np.ndarray:
    """Trailing flat-top smoothing over the last ``width_samples`` samples."""
    x = np.asarray(samples, dtype=np.float64)
    if width_samples > len(x):  # before the kernel is built
        raise InputTooShortError(
            f"kernel ({width_samples}) longer than signal ({len(x)})")
    return _causal_convolve(x, flattop_kernel(width_samples))


def mwi(samples: np.ndarray, window_samples: int) -> np.ndarray:
    """Trailing moving-window mean over the last ``window_samples`` samples."""
    x = np.asarray(samples, dtype=np.float64)
    if window_samples < 1:
        raise ConfigError(f"MWI window must be >= 1 sample, got {window_samples}")
    if window_samples > len(x):
        raise InputTooShortError(
            f"MWI window ({window_samples}) longer than signal ({len(x)})")
    kernel = np.full(window_samples, 1.0 / window_samples)
    return _causal_convolve(x, kernel)


def run_pipeline(samples: np.ndarray, fs: float,
                 config: PipelineConfig | None = None, *,
                 intermediates: bool = True) -> StageOutputs:
    """Run all five stages on one channel and report per-stage delays.

    Delay bookkeeping: the band-pass delay is the filter's group delay
    measured at 10 Hz, the derivative stencil is symmetric (zero), and each
    trailing window of length N contributes (N - 1) // 2.

    With ``intermediates=False`` the derivative, squared and smoothed
    signals are each let go as soon as the next stage exists and come back
    as empty arrays, so the run holds three record-lengths at its peak
    rather than all five stages.
    """
    if config is None:
        config = PipelineConfig()

    filtered, sos = _bandpass(samples, fs, config)
    bp_delay = int(_sos_group_delay(sos, fs, GROUP_DELAY_PROBE_HZ) + 0.5)
    released = np.empty(0)

    derived = derivative(filtered, fs)
    squared = square(derived)
    if not intermediates:
        derived = released

    smoothed, width = squared, 1  # the bypass: a one-sample window
    if config.smooth_enabled:
        width = ms_to_samples(config.smooth_window_ms, fs,
                              minimum=MIN_SMOOTH_SAMPLES)
        smoothed = smooth(squared, width)
    if not intermediates:
        squared = released

    mwi_width = ms_to_samples(config.mwi_window_ms, fs, minimum=1)
    integrated = mwi(smoothed, mwi_width)
    if not intermediates:
        smoothed = released

    delays = {
        "bandpass": bp_delay,
        "derivative": 0,
        "square": 0,
        "smooth": (width - 1) // 2,
        "mwi": (mwi_width - 1) // 2,
    }
    return StageOutputs(filtered=filtered, derived=derived, squared=squared,
                        smoothed=smoothed, integrated=integrated,
                        stage_delays_samples=delays)
