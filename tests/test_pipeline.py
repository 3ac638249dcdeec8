"""Preprocessing stage tests: exact stencil arithmetic, window shapes,
frequency response, delay bookkeeping, and linearity properties."""

import dataclasses
import math
import re
import warnings
from unittest import mock

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.signal

import ptpp
from ptpp.pipeline import (FLATTOP_A0, FLATTOP_A1, FLATTOP_A2, FLATTOP_A3,
                           FLATTOP_A4, GROUP_DELAY_PROBE_HZ,
                           MIN_SMOOTH_SAMPLES, _causal_convolve, _design_sos,
                           _sos_group_delay)

from helpers import (causal_convolve_reference, derivative_reference,
                     sos_group_delay_reference, traced_peak)

FS = 360.0

# Orders x sampling rates x bands the closed-form delay is checked on.
DELAY_GRID = [(order, fs, band) for order in range(1, 13)
              for fs in (128.0, 250.0, 256.0, 360.0, 500.0, 1000.0)
              for band in ((5.0, 18.0), (5.0, 15.0), (0.5, 40.0), (3.0, 30.0),
                           (10.0, 25.0), (12.0, 30.0), (1.0, 45.0))]

finite_signals = hnp.arrays(
    np.float64,
    st.integers(min_value=5, max_value=200),
    elements=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)


def sine(freq_hz, fs=FS, duration_s=10.0, amplitude=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)


def steady_amplitude(y, fs=FS, settle_s=2.0):
    return float(np.max(np.abs(y[int(settle_s * fs):])))


def design(order, fs, low, high):
    return _design_sos(fs, ptpp.PipelineConfig(
        band_low_hz=low, band_high_hz=high, filter_order=order))


class TestMsToSamples:
    def test_standard_windows_at_360(self):
        assert ptpp.ms_to_samples(231, FS) == 83
        assert ptpp.ms_to_samples(100, FS) == 36
        assert ptpp.ms_to_samples(60, FS) == 22
        assert ptpp.ms_to_samples(150, FS) == 54
        assert ptpp.ms_to_samples(360, FS) == 130
        assert ptpp.ms_to_samples(70, FS) == 25

    def test_minimum_floor(self):
        assert ptpp.ms_to_samples(0.1, FS) == 1
        assert ptpp.ms_to_samples(0.1, FS, minimum=5) == 5

    def test_rounds_halves_up(self):
        assert ptpp.ms_to_samples(2500.0, 1.0) == 3
        assert ptpp.ms_to_samples(2450.0, 1.0) == 2
        # A seconds key is read as seconds * 1000.0 ms. 0.145 * 100 is
        # 14.4999..., but 145 ms at 100 Hz is 14.5 samples.
        assert ptpp.ms_to_samples(2.5 * 1000.0, 1.0) == 3
        assert ptpp.ms_to_samples(2.45 * 1000.0, 1.0) == 2
        assert ptpp.ms_to_samples(0.145 * 1000.0, 100.0) == 15

    def test_count_too_large_for_a_float(self):
        assert ptpp.ms_to_samples(1e308, 1e308) == math.inf
        assert ptpp.ms_to_samples(1e308, 360.0, minimum=0) == math.inf
        assert ptpp.ms_to_samples(math.inf * 1000.0, 100.0) == math.inf

    @hypothesis.given(ms=st.floats(0.001, 1000), fs=st.floats(1, 5000))
    def test_at_least_minimum_and_monotone(self, ms, fs):
        n = ptpp.ms_to_samples(ms, fs)
        assert n >= 1
        assert ptpp.ms_to_samples(2 * ms, fs) >= n


class TestPipelineConfig:
    @pytest.mark.parametrize("fs", [0.0, -1.0, math.inf, math.nan])
    def test_sampling_rate_refused(self, fs):
        with pytest.raises(ptpp.ConfigError, match="sampling rate"):
            ptpp.PipelineConfig().validate(fs)

    @pytest.mark.parametrize("fields,fs,message", [
        (dict(band_low_hz=0.0), FS, "band edges"),
        (dict(band_low_hz=-0.5), FS, "band edges"),
        (dict(band_low_hz=10.0, band_high_hz=10.0), FS, "band edges"),
        # 2 * low / fs, as the design computes it, underflows to 0
        (dict(band_low_hz=5e-324, band_high_hz=1.0), 4.0, "is 0 at"),
        (dict(band_high_hz=180.0), FS, "Nyquist"),
        (dict(filter_order=0), FS, "filter_order"),
        (dict(smooth_window_ms=0.0), FS, "window durations"),
        (dict(mwi_window_ms=math.inf), FS, "window durations"),
    ])
    def test_refused(self, fields, fs, message):
        with pytest.raises(ptpp.ConfigError, match=message):
            ptpp.PipelineConfig(**fields).validate(fs)

    @pytest.mark.parametrize("fields,fs", [
        (dict(band_low_hz=0.1, band_high_hz=0.2), 1.0),
        (dict(band_low_hz=5e-324, band_high_hz=0.5), 2.0),
        (dict(smooth_window_ms=0.5), FS),
    ])
    def test_accepted(self, fields, fs):
        ptpp.PipelineConfig(**fields).validate(fs)


class TestBandpass:
    CFG = ptpp.PipelineConfig()

    def test_in_band_gain(self):
        y = ptpp.bandpass(sine(12.0), FS, self.CFG)
        assert steady_amplitude(y) >= 0.7

    def test_baseline_wander_suppressed(self):
        y = ptpp.bandpass(sine(0.3), FS, self.CFG)
        assert steady_amplitude(y) <= 0.05

    def test_powerline_below_in_band(self):
        g50 = steady_amplitude(ptpp.bandpass(sine(50.0), FS, self.CFG))
        g12 = steady_amplitude(ptpp.bandpass(sine(12.0), FS, self.CFG))
        assert g50 < g12

    def test_zero_in_zero_out(self):
        y = ptpp.bandpass(np.zeros(500), FS, self.CFG)
        assert np.all(y == 0.0)

    def test_band_edge_beyond_nyquist(self):
        cfg = ptpp.PipelineConfig(band_high_hz=200.0)
        with pytest.raises(ptpp.ConfigError):
            ptpp.bandpass(np.zeros(100), FS, cfg)

    def test_inverted_band(self):
        cfg = ptpp.PipelineConfig(band_low_hz=20.0, band_high_hz=10.0)
        with pytest.raises(ptpp.ConfigError):
            ptpp.bandpass(np.zeros(100), FS, cfg)

    def test_band_not_holding_the_delay_probe_runs(self):
        # 12-30 Hz does not contain the 10 Hz delay probe; it still filters.
        cfg = ptpp.PipelineConfig(band_low_hz=12.0, band_high_hz=30.0)
        y = ptpp.bandpass(sine(20.0), FS, cfg)
        assert steady_amplitude(y) >= 0.7

    @pytest.mark.parametrize("low,high,order", [
        (5.0, 18.0, 3), (12.0, 30.0, 3), (17.99, 18.0, 12)])
    def test_record_shorter_than_centre_delay_refused(self, low, high, order):
        cfg = ptpp.PipelineConfig(band_low_hz=low, band_high_hz=high,
                                  filter_order=order)
        delay = _sos_group_delay(_design_sos(FS, cfg), FS,
                                 np.sqrt(low * high))
        n = int(delay)  # delay is not a whole number of samples
        with pytest.raises(ptpp.InputTooShortError, match="band-pass delay"):
            ptpp.bandpass(np.zeros(n), FS, cfg)
        assert len(ptpp.bandpass(np.zeros(n + 1), FS, cfg)) == n + 1

    def test_length_preserved(self):
        assert len(ptpp.bandpass(np.ones(777), FS, self.CFG)) == 777

    def test_record_as_long_as_a_whole_sample_delay_runs(self):
        with mock.patch.object(ptpp.pipeline, "_sos_group_delay",
                               return_value=100.0):
            assert len(ptpp.bandpass(np.zeros(100), FS, self.CFG)) == 100

    @pytest.mark.parametrize("fs,low,high,refused", [
        (1000.0, 5.0, 18.0, False), (FS, 17.99, 18.0, True),
        (FS, 9.99, 10.01, True), (FS, 0.0001, 0.1, True)])
    def test_order_12_delays_raise_no_scipy_warning(self, fs, low, high,
                                                    refused):
        # butter puts the filter gain (1.6e-17 for the first design) into
        # the first section's numerator, and the last design's poles sit
        # next to z = 1; the delays must not warn about either.
        cfg = ptpp.PipelineConfig(band_low_hz=low, band_high_hz=high,
                                  filter_order=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(ptpp.InputTooShortError,
                                   match="band-pass delay"):
                    ptpp.run_pipeline(sine(12.0, fs, 20.0), fs, cfg)
            else:
                ptpp.run_pipeline(sine(12.0, fs, 20.0), fs, cfg)

    @pytest.mark.parametrize("order,high", [
        (50, 179.9999), (250, 18.0), (249, 18.0)],
        ids=["gain-overflows", "gain-nan", "gain-underflows"])
    def test_design_that_does_not_fit_a_float_refused(self, order, high):
        cfg = ptpp.PipelineConfig(band_high_hz=high, filter_order=order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ptpp.ConfigError, match=re.escape(
                    f"order-{order} Butterworth band-pass of (5.0, {high}) "
                    f"Hz at fs=360.0 does not fit a float")):
                ptpp.bandpass(np.zeros(1000), FS, cfg)

    @staticmethod
    def drift(sos, fs):
        # Filtered rms of 60 s of white noise over the rms of the same noise
        # put through the design's frequency response, past a 20 s settle.
        x = np.random.default_rng(0).standard_normal(int(60 * fs))
        _, h = scipy.signal.sosfreqz(sos, worN=np.fft.rfftfreq(len(x), 1 / fs),
                                     fs=fs)
        ref = np.fft.irfft(np.fft.rfft(x) * h, len(x))
        y = scipy.signal.sosfilt(sos, x)
        k = int(20 * fs)
        return math.sqrt(np.mean(y[k:] ** 2) / np.mean(ref[k:] ** 2))

    @pytest.mark.parametrize("fs", [128.0, 360.0, 1000.0])
    @pytest.mark.parametrize("high", [18.0, 15.0])
    def test_highest_order_keeps_to_its_design(self, fs, high):
        sos = design(64, fs, 5.0, high)
        assert self.drift(sos, fs) == pytest.approx(1.0, rel=0.05)

    def test_drift_above_the_highest_order_shows(self):
        sos = scipy.signal.butter(96, (5.0, 18.0), btype="bandpass", fs=128.0,
                                  output="sos")
        assert self.drift(sos, 128.0) > 1.05

    @pytest.mark.parametrize("order", [65, 150, 240])
    def test_order_above_the_highest_refused(self, order):
        cfg = ptpp.PipelineConfig(filter_order=order)
        with pytest.raises(ptpp.ConfigError, match=re.escape(
                f"order-{order} Butterworth band-pass of (5.0, 18.0) Hz at "
                f"fs=360.0 is above order 64")):
            ptpp.bandpass(np.zeros(100_000), FS, cfg)

    def test_undefined_delay_refused(self):
        # The centre rounds to 0 Hz against poles rounded onto z = 1.
        cfg = ptpp.PipelineConfig(band_low_hz=1e-300)
        with pytest.raises(ptpp.ProcessingError, match=(
                "band-pass delay undefined at 4.24264e-150 Hz")):
            ptpp.bandpass(np.zeros(100_000), FS, cfg)


class TestGroupDelay:
    """The closed-form band-pass delay against scipy's per-section reading
    and, near 0 Hz where scipy misreads it, against 60-digit arithmetic."""

    def test_matches_scipy_on_the_design_grid(self):
        for order, fs, (low, high) in DELAY_GRID:
            sos = design(order, fs, low, high)
            for freq in (GROUP_DELAY_PROBE_HZ, math.sqrt(low * high)):
                delay = _sos_group_delay(sos, fs, freq)
                ref = sos_group_delay_reference(sos, fs, freq)
                assert delay == pytest.approx(ref, rel=1e-8)
                if freq == GROUP_DELAY_PROBE_HZ:  # the stage delay
                    assert int(delay + 0.5) == int(ref + 0.5)

    def test_numerators_are_symmetric_or_antisymmetric(self):
        # The closed form's premise: a second-order numerator with its zeros
        # at z = +-1 is one of these, and delays exactly one sample.
        for order, fs, (low, high) in DELAY_GRID:
            for b in design(order, fs, low, high)[:, :3]:
                assert (np.array_equal(b, b[::-1])
                        or np.array_equal(b, -b[::-1]))

    @pytest.mark.parametrize("order,expected", [
        (1, 1147.06), (3, 2294.13), (6, 4431.91), (12, 8787.99)])
    def test_near_0_hz_band_against_60_digits(self, order, expected):
        # scipy's group_delay reads 1147.06 / 2,264,125 / 1,732,743 / 3,729.
        mpmath = pytest.importorskip("mpmath")
        sos = design(order, FS, 0.0001, 0.1)
        freq = math.sqrt(0.0001 * 0.1)
        with mpmath.workdps(60):
            z = mpmath.expj(-2 * mpmath.pi * mpmath.mpf(freq) / FS)
            ref = mpmath.mpf(0)
            for section in sos:  # numerators and denominators alike
                for coeffs, sign in ((section[:3], 1), (section[3:], -1)):
                    c = [mpmath.mpf(float(x)) for x in coeffs]
                    ref += sign * mpmath.re(
                        sum(k * c[k] * z**k for k in range(3))
                        / sum(c[k] * z**k for k in range(3)))
        delay = _sos_group_delay(sos, FS, freq)
        assert delay == pytest.approx(float(ref), rel=1e-6)
        assert delay == pytest.approx(expected, abs=0.005)


class TestDerivative:
    def test_constant_is_flat_zero(self):
        y = ptpp.derivative(np.full(50, 3.7), FS)
        np.testing.assert_allclose(y, np.zeros(50), atol=1e-9)

    def test_unit_slope_ramp(self):
        # x(n) = n*T has true derivative 1.0 regardless of sampling rate;
        # edge replication makes the first and last two samples fall short.
        for fs in (1.0, 8.0, 360.0):
            x = np.arange(40) / fs
            y = ptpp.derivative(x, fs)
            np.testing.assert_allclose(y[2:-2], np.ones(36), rtol=1e-9)
            np.testing.assert_allclose(y[:2], [0.5, 0.875], rtol=1e-9)
            np.testing.assert_allclose(y[-2:], [0.875, 0.5], rtol=1e-9)

    def test_impulse_stencil(self):
        # at fs = 8 the 1/(8T) factor is exactly 1, exposing the raw taps
        y = ptpp.derivative(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 8.0)
        np.testing.assert_array_equal(y, [1.0, 2.0, 0.0, -2.0, -1.0])

    def test_too_short(self):
        with pytest.raises(ptpp.InputTooShortError):
            ptpp.derivative(np.zeros(4), FS)

    def test_traced_peak(self):
        # The output and one block-long temporary (128 KiB): 1.08x on this
        # 10-min record, against 2x for a record-long temporary.
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=600.0, seed=3))
        x = record.channels[0].samples
        assert traced_peak(lambda s: ptpp.derivative(s, FS), x) \
            <= 1.15 * x.nbytes

    @hypothesis.given(x=finite_signals)
    def test_doubling_is_exact(self, x):
        np.testing.assert_array_equal(ptpp.derivative(2.0 * x, FS),
                                      2.0 * ptpp.derivative(x, FS))

    @hypothesis.given(x=finite_signals, y=finite_signals)
    def test_additivity(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        lhs = ptpp.derivative(x + y, FS)
        rhs = ptpp.derivative(x, FS) + ptpp.derivative(y, FS)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-3)


# Magnitudes across the float range, signed zeros included; the stencil's
# sums and the largest fs / 8 stay far below overflow.
wide_signals = hnp.arrays(
    np.float64,
    st.integers(min_value=5, max_value=64),
    elements=(st.floats(min_value=1e-300, max_value=1e300)
              | st.floats(min_value=-1e300, max_value=-1e-300)
              | st.sampled_from([0.0, -0.0])),
)
DERIVATIVE_RATES = (128.0, 250.0, 257.3, 360.0, 1000.0)


class TestDerivativeReference:
    """The sliced derivative equals the edge-padded full copy it replaced,
    byte for byte (so signed zeros too)."""

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(x=wide_signals, fs=st.sampled_from(DERIVATIVE_RATES))
    def test_matches_padded_reference(self, x, fs):
        got = ptpp.derivative(x, fs)
        assert got.tobytes() == derivative_reference(x, fs).tobytes()

    def test_ten_minute_record(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=600.0, seed=3))
        x = record.channels[0].samples
        for fs in DERIVATIVE_RATES:
            assert (ptpp.derivative(x, fs).tobytes()
                    == derivative_reference(x, fs).tobytes())

    @pytest.mark.parametrize("block", [1, 2, 7, ptpp.pipeline._DERIVATIVE_BLOCK])
    def test_block_edges(self, block):
        # One full block, one and a sample, and k blocks short of one sample
        # (the last block one short); every interior sample is in a block.
        x = np.random.default_rng(block).standard_normal(5 * block + 3)
        with mock.patch.object(ptpp.pipeline, "_DERIVATIVE_BLOCK", block):
            for n in (block + 4, block + 5, 2 * block + 3, 5 * block + 3):
                for fs in DERIVATIVE_RATES:
                    assert (ptpp.derivative(x[:n], fs).tobytes()
                            == derivative_reference(x[:n], fs).tobytes()), n


class TestSquare:
    def test_pointwise(self):
        np.testing.assert_array_equal(ptpp.square(np.array([-2.0, 0.0, 3.0])),
                                      [4.0, 0.0, 9.0])

    @hypothesis.given(x=finite_signals)
    def test_nonnegative(self, x):
        assert np.all(ptpp.square(x) >= 0.0)


class TestFlattopKernel:
    def test_coefficients_as_printed(self):
        assert FLATTOP_A0 == 0.2155789
        assert FLATTOP_A1 == 0.4166316
        assert FLATTOP_A2 == 0.27726316
        assert FLATTOP_A3 == 0.08357895
        assert FLATTOP_A4 == 0.00694737

    def test_endpoint_slightly_negative(self):
        # w(0) = a0 - a1 + a2 - a3 + a4, the alternating coefficient sum
        w0 = FLATTOP_A0 - FLATTOP_A1 + FLATTOP_A2 - FLATTOP_A3 + FLATTOP_A4
        assert abs(w0 - (-0.00042112)) < 1e-9
        assert ptpp.flattop_kernel(22)[0] < 0.0

    def test_unit_sum(self):
        for width in (5, 8, 21, 22, 54):
            assert abs(ptpp.flattop_kernel(width).sum() - 1.0) < 1e-12

    def test_symmetry_up_to_endpoint(self):
        # period-N convention: w(n) = w(N - n), so everything past the
        # first sample is palindromic
        for width in (5, 21, 22):
            k = ptpp.flattop_kernel(width)
            np.testing.assert_allclose(k[1:], k[1:][::-1], rtol=1e-12)

    def test_minimum_width(self):
        with pytest.raises(ptpp.ConfigError):
            ptpp.flattop_kernel(4)


class TestSmooth:
    def test_constant_preserved(self):
        y = ptpp.smooth(np.full(100, 2.5), 22)
        np.testing.assert_allclose(y, np.full(100, 2.5), rtol=1e-12)

    def test_impulse_reproduces_kernel(self):
        k = ptpp.flattop_kernel(9)
        x = np.zeros(60)
        x[30] = 1.0
        y = ptpp.smooth(x, 9)
        np.testing.assert_allclose(y[30:39], k, rtol=1e-12, atol=1e-15)
        assert np.all(y[:30] == 0.0)
        np.testing.assert_allclose(y[39:], 0.0, atol=1e-15)

    def test_kernel_longer_than_signal(self):
        with pytest.raises(ptpp.InputTooShortError):
            ptpp.smooth(np.zeros(10), 22)
        assert len(ptpp.smooth(np.zeros(22), 22)) == 22

    def test_noise_variance_reduced(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=100_000)
            assert np.var(ptpp.smooth(x, 22)) < np.var(x)


class TestMwi:
    def test_constant_preserved(self):
        np.testing.assert_allclose(ptpp.mwi(np.full(40, 3.0), 7),
                                   np.full(40, 3.0), rtol=1e-12)

    def test_impulse_spreads_over_window(self):
        x = np.zeros(20)
        x[10] = 1.0
        y = ptpp.mwi(x, 4)
        expected = np.zeros(20)
        expected[10:14] = 0.25
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-15)

    def test_mit_bih_window_is_54_samples(self):
        assert ptpp.ms_to_samples(150, 360.0) == 54

    def test_bad_window(self):
        with pytest.raises(ptpp.ConfigError):
            ptpp.mwi(np.zeros(10), 0)
        with pytest.raises(ptpp.InputTooShortError):
            ptpp.mwi(np.zeros(10), 11)

    @hypothesis.given(x=finite_signals,
                      w=st.integers(min_value=1, max_value=5))
    def test_output_within_input_range(self, x, w):
        y = ptpp.mwi(x, w)
        assert np.all(y >= np.min(x) - 1e-9 * abs(np.min(x)) - 1e-12)
        assert np.all(y <= np.max(x) + 1e-9 * abs(np.max(x)) + 1e-12)


@st.composite
def convolve_cases(draw):
    """A signal of 1-2000 samples and a kernel no longer than it (often
    exactly as long): 1-tap, flat-top, MWI or random taps."""
    n = draw(st.integers(min_value=1, max_value=2000))
    width = draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))
    kind = draw(st.sampled_from(["one_tap", "flattop", "mwi", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "one_tap":
        kernel = np.array([draw(st.floats(-10, 10, allow_nan=False))])
    elif kind == "flattop" and width >= MIN_SMOOTH_SAMPLES:
        kernel = ptpp.flattop_kernel(width)
    elif kind == "random":
        kernel = rng.normal(size=width)
    else:
        kernel = np.full(width, 1.0 / width)
    x = rng.normal(size=n) * 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        x = x * x  # the squared stage the pipeline convolves
    return x, kernel


class TestCausalConvolveReference:
    """The edge-recomputing convolution equals the full-length padded copy
    it replaced, byte for byte."""

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(case=convolve_cases())
    def test_matches_padded_reference(self, case):
        x, kernel = case
        got = _causal_convolve(x, kernel)
        want = causal_convolve_reference(x, kernel)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_pipeline_windows_on_a_long_record(self):
        x = np.random.default_rng(5).normal(size=100_000) ** 2
        for kernel in (ptpp.flattop_kernel(22), np.full(54, 1.0 / 54)):
            assert (_causal_convolve(x, kernel).tobytes()
                    == causal_convolve_reference(x, kernel).tobytes())

    @pytest.mark.parametrize("kernel", [ptpp.flattop_kernel(22),
                                        np.full(54, 1.0 / 54)],
                             ids=["smooth", "mwi"])
    @pytest.mark.parametrize("block", ["1", "2", "7", "k-1", "k", "k+1"])
    def test_blocks_new_and_in_place(self, kernel, block):
        # Every block size, on records of one kernel, one kernel and a
        # sample, a block either side and a prime length: a new output and
        # one written over its own input both equal the reference.
        k = len(kernel)
        size = {"k-1": k - 1, "k": k, "k+1": k + 1}.get(block) or int(block)
        x = np.random.default_rng(size).normal(size=1009) ** 2
        with mock.patch.object(ptpp.pipeline, "_CONVOLVE_BLOCK", size):
            for n in sorted({k, k + 1, size - 1, size + 1, 1009} - set(
                    range(k))):
                want = causal_convolve_reference(x[:n], kernel).tobytes()
                assert _causal_convolve(x[:n], kernel).tobytes() == want, n
                y = x[:n].copy()
                assert _causal_convolve(y, kernel, y) is y
                assert y.tobytes() == want, n


class TestInPlace:
    """``out=`` on the stages run_pipeline chains: None or the input
    itself, nothing else."""

    STAGES = [(ptpp.square, ()), (ptpp.smooth, (22,)), (ptpp.mwi, (54,))]

    @pytest.mark.parametrize("stage,args", STAGES,
                             ids=["square", "smooth", "mwi"])
    def test_in_place_equals_a_new_array(self, stage, args):
        x = np.random.default_rng(8).normal(size=3 * 997)
        want = stage(x, *args).tobytes()
        y = x.copy()
        assert stage(y, *args, out=y) is y
        assert y.tobytes() == want
        assert stage(x, *args, out=None).tobytes() == want

    @pytest.mark.parametrize("stage,args", STAGES,
                             ids=["square", "smooth", "mwi"])
    def test_foreign_out_refused(self, stage, args):
        x = np.random.default_rng(9).normal(size=200)
        ints = np.arange(200)
        for samples, out in ((x, np.empty(200)), (x, x[:]), (x, x.copy()),
                             (ints, ints)):  # an int input is converted
            with pytest.raises(ptpp.ConfigError, match="out="):
                stage(samples, *args, out=out)
        with pytest.raises(TypeError):
            stage(x, *args, x)  # out= is keyword-only


class TestRunPipeline:
    def test_zero_in_zero_out_everywhere(self):
        out = ptpp.run_pipeline(np.zeros(1000), FS)
        for stage in (out.filtered, out.derived, out.squared,
                      out.smoothed, out.integrated):
            assert np.all(stage == 0.0)

    def test_lengths_preserved(self):
        out = ptpp.run_pipeline(np.random.default_rng(0).normal(size=901), FS)
        for stage in (out.filtered, out.derived, out.squared,
                      out.smoothed, out.integrated):
            assert len(stage) == 901

    def test_delay_map_at_360(self):
        out = ptpp.run_pipeline(np.zeros(1000), FS)
        d = out.stage_delays_samples
        assert d["derivative"] == 0
        assert d["square"] == 0
        assert d["smooth"] == 10   # (22 - 1) // 2
        assert d["mwi"] == 26      # (54 - 1) // 2
        assert 0 < d["bandpass"] < 40

    @pytest.mark.parametrize("fs,smooth,mwi", [(100.0, 2, 7), (120.0, 3, 8)])
    def test_delay_map_at_low_rates(self, fs, smooth, mwi):
        # The 10 Hz band-pass delay reads 4.53 (100 Hz) and 5.49 (120 Hz)
        # samples; 6 and 7 smoothing samples, 15 and 18 MWI samples
        d = ptpp.run_pipeline(np.zeros(1000), fs).stage_delays_samples
        assert (d["bandpass"], d["smooth"], d["mwi"]) == (5, smooth, mwi)

    def test_one_sample_mwi(self):
        # 1 ms at 360 Hz rounds to 0 samples; the window floor is 1
        out = ptpp.run_pipeline(np.random.default_rng(0).normal(size=1000), FS,
                                ptpp.PipelineConfig(mwi_window_ms=1.0))
        np.testing.assert_array_equal(out.integrated, out.smoothed)
        assert out.stage_delays_samples["mwi"] == 0

    def test_smoothing_window_checked_before_kernel(self, monkeypatch):
        def no_kernel(width):
            raise AssertionError(f"flattop_kernel({width}) was called")
        monkeypatch.setattr(ptpp.pipeline, "flattop_kernel", no_kernel)
        cfg = ptpp.PipelineConfig(smooth_window_ms=5000.0)  # 1800 samples
        with pytest.raises(ptpp.InputTooShortError, match="1800.*1000"):
            ptpp.run_pipeline(np.zeros(1000), FS, cfg)

    @pytest.mark.parametrize("run", [ptpp.run_pipeline, ptpp.bandpass],
                             ids=["run_pipeline", "bandpass"])
    def test_one_design_per_record(self, run):
        x = np.random.default_rng(5).normal(size=1000)
        with mock.patch.object(scipy.signal, "butter",
                               wraps=scipy.signal.butter) as butter:
            run(x, FS, ptpp.PipelineConfig())
        assert butter.call_count == 1

    def test_bandpass_alone_reads_no_probe_delay(self):
        # The 10 Hz probe of this design is NaN; its centre delay is a finite
        # 1.18 samples. Only run_pipeline needs the probe.
        cfg = ptpp.PipelineConfig(band_low_hz=1e-6, band_high_hz=1e10,
                                  filter_order=2)
        x = np.random.default_rng(6).normal(size=5000)
        assert len(ptpp.bandpass(x, 1e11, cfg)) == 5000
        with pytest.raises(ptpp.ProcessingError,
                           match="band-pass delay undefined at 10 Hz"):
            ptpp.run_pipeline(x, 1e11, cfg)

    def test_smoothing_bypass(self):
        cfg = ptpp.PipelineConfig(smooth_enabled=False)
        out = ptpp.run_pipeline(np.random.default_rng(1).normal(size=720),
                                FS, cfg)
        np.testing.assert_array_equal(out.smoothed, out.squared)
        assert out.stage_delays_samples["smooth"] == 0

    @pytest.mark.parametrize("smooth_enabled", [True, False],
                             ids=["smooth", "bypass"])
    @pytest.mark.parametrize("detector", ptpp.DETECTORS)
    def test_without_intermediates_same_chain(self, detector, smooth_enabled):
        # Longer than two convolution blocks. The lean chain writes its
        # stages over one array and the full one keeps each; both integrate
        # to the stages chained over full-length padded copies.
        cfg = dataclasses.replace(ptpp.default_pipeline_config(detector),
                                  smooth_enabled=smooth_enabled)
        x = np.random.default_rng(7).normal(
            size=2 * ptpp.pipeline._CONVOLVE_BLOCK + 11)
        full = ptpp.run_pipeline(x, FS, cfg)
        lean = ptpp.run_pipeline(x, FS, cfg, intermediates=False)
        assert lean.filtered.tobytes() == full.filtered.tobytes()
        assert lean.integrated.tobytes() == full.integrated.tobytes()
        y = ptpp.derivative(full.filtered, FS)
        y = y * y
        if smooth_enabled:
            y = causal_convolve_reference(y, ptpp.flattop_kernel(
                ptpp.ms_to_samples(cfg.smooth_window_ms, FS)))
        window = ptpp.ms_to_samples(cfg.mwi_window_ms, FS)
        want = causal_convolve_reference(y, np.full(window, 1.0 / window))
        assert full.integrated.tobytes() == want.tobytes()
        assert (list(lean.stage_delays_samples.items())
                == list(full.stage_delays_samples.items()))
        for stage in (lean.derived, lean.squared, lean.smoothed):
            assert stage.shape == (0,)
        for stage in (full.derived, full.squared, full.smoothed):
            assert len(stage) == len(x)

    def test_deterministic(self):
        x = np.random.default_rng(2).normal(size=2000)
        a = ptpp.run_pipeline(x, FS)
        b = ptpp.run_pipeline(x, FS)
        for u, v in ((a.filtered, b.filtered), (a.integrated, b.integrated)):
            np.testing.assert_array_equal(u, v)

    def test_nonnegative_stages(self):
        x = np.random.default_rng(3).normal(size=2000)
        out = ptpp.run_pipeline(x, FS)
        assert np.all(out.squared >= 0.0)
        assert np.all(out.integrated >= 0.0)

    def test_scale_equivariance(self):
        x = np.random.default_rng(4).normal(size=2000)
        base = ptpp.run_pipeline(x, FS)
        for alpha in (0.1, 10.0):
            scaled = ptpp.run_pipeline(alpha * x, FS)
            np.testing.assert_allclose(scaled.filtered, alpha * base.filtered,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(scaled.derived, alpha * base.derived,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(scaled.squared,
                                       alpha ** 2 * base.squared,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(scaled.integrated,
                                       alpha ** 2 * base.integrated,
                                       rtol=1e-9, atol=1e-12)

    def test_one_dominant_integration_hump_per_beat(self):
        # A biphasic pulse also leaves a tiny trailing rebound hump (~160x
        # smaller here), so count the dominant maxima, not all maxima.
        record, truth = ptpp.synth_ecg(
            ptpp.SynthSpec(duration_s=30.0, t_wave=False))
        out = ptpp.run_pipeline(record.channels[0].samples, FS)
        cands = ptpp.find_candidates(out.integrated, FS)
        amps = out.integrated[cands]
        dominant = cands[amps > 0.1 * np.median(amps[amps > 0])]
        assert len(dominant) == len(truth.beat_samples)
        gaps = np.diff(dominant)
        # 80 bpm at 360 Hz puts true pulses exactly 270 samples apart
        assert np.all(np.abs(gaps - 270) <= 10)
