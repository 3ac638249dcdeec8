"""Decision-logic tests.

The threshold-update rules get exact-arithmetic checks; the decision loop is
exercised through hand-built stage outputs (zero delays, filtered channel
equal to or deliberately different from the integrated channel) so each
branch fires in a controlled, verifiable way.
"""

import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest

import ptpp
from ptpp.detector import (REJECT_BELOW, REJECT_TWAVE, VIA_SEARCHBACK,
                           VIA_SPIKE_RECOVERY, VIA_THRESHOLD1, _window_argmax)

from helpers import (band_peak_reference, localize_reference,
                     thinned_maxima_reference)

FS = 100.0  # scenario rate: 231 ms -> 23 samples, 360 ms -> 36, 70 ms -> 7

REL = 1e-9


def zero_delays():
    return {"bandpass": 0, "derivative": 0, "square": 0, "smooth": 0, "mwi": 0}


def add_triangle(x, apex, height, half_width=3):
    """Place a triangular hump (zero exactly at +-half_width)."""
    for k in range(-half_width, half_width + 1):
        j = apex + k
        if 0 <= j < len(x):
            x[j] = max(x[j], height * (1.0 - abs(k) / half_width))


def make_stages(integrated, filtered=None):
    integrated = np.asarray(integrated, dtype=np.float64)
    filtered = integrated if filtered is None else np.asarray(filtered, float)
    z = np.zeros_like(integrated)
    return ptpp.StageOutputs(filtered=filtered, derived=z, squared=z,
                             smoothed=z, integrated=integrated,
                             stage_delays_samples=zero_delays())


def state(spk=0.0, npk=0.0, threshold1=0.0, threshold2=0.0, t2_ratio=0.4):
    return ptpp.ThresholdState(spk=spk, npk=npk, threshold1=threshold1,
                               threshold2=threshold2, t2_ratio=t2_ratio)


class TestDetectorConfig:
    def test_documented_defaults(self):
        cfg = ptpp.DetectorConfig()
        assert cfg.min_peak_separation_ms == 231.0
        assert cfg.twave_window_ms == 360.0
        assert cfg.twave_slope_window_ms == 70.0
        assert cfg.twave_slope_ratio == 0.6
        assert cfg.searchback_rr_factor == 1.66
        assert cfg.searchback_abs_s == 1.0
        assert cfg.spike_recovery_s == 1.4
        assert cfg.spike_recovery_t2_frac == 0.2
        assert cfg.rr_history_beats == 8
        assert cfg.init_window_s == 2.0

    @pytest.mark.parametrize("bad", [
        dict(min_peak_separation_ms=0.0),
        dict(twave_slope_ratio=1.2),
        dict(twave_slope_ratio=-0.1),
        dict(spike_recovery_t2_frac=0.0),
        dict(rr_history_beats=0),
        dict(twave_window_ms=math.inf),
        dict(twave_slope_ratio=1.0),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ptpp.ConfigError):
            ptpp.DetectorConfig(**bad).validate()

    @pytest.mark.parametrize("edge", [
        dict(rr_history_beats=1),
        dict(rr_history_beats=sys.maxsize),
        dict(searchback_abs_s=math.inf, spike_recovery_s=math.inf),
    ])
    def test_validate_accepts(self, edge):
        ptpp.DetectorConfig(**edge).validate()

    @pytest.mark.parametrize("beats", [8.0, 8.5, "8", None])
    def test_rr_history_must_be_an_integer(self, beats):
        cfg = ptpp.DetectorConfig(rr_history_beats=beats)
        with pytest.raises(ptpp.ConfigError, match="must be an integer"):
            cfg.validate()
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=5.0))
        with pytest.raises(ptpp.ConfigError, match="must be an integer"):
            ptpp.run_detector("ptpp", record.channels[0].samples, 360.0,
                              detector_cfg=cfg)

    @pytest.mark.parametrize("beats,same_as", [(True, 1), (np.int64(8), 8)])
    def test_rr_history_takes_integer_kinds(self, beats, same_as):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(
            duration_s=30.0, heart_rate_bpm=[[0.0, 110.0], [10.0, 45.0]],
            t_wave_amplitude=1.1, t_wave_delay_ms=420.0, seed=3))
        stages = ptpp.run_pipeline(record.channels[0].samples, 360.0)

        def run(n):
            trace: list = []
            result = ptpp.detect(stages, 360.0,
                                 ptpp.DetectorConfig(rr_history_beats=n),
                                 trace)
            return result.r_peaks.tolist(), result.rejected, repr(trace)

        assert run(beats) == run(same_as)


def _staircase(n_steps, gap, slope):
    """``n_steps`` maxima ``gap`` samples apart, each ``slope`` above the
    one before it, on a zero floor."""
    x = np.zeros(n_steps * gap + 1)
    x[1::gap][:n_steps] = 100.0 + slope * np.arange(n_steps)
    return x


def _two_staircases(n_steps, gap, slope):
    """Two staircases ``n_steps * gap`` zeros apart whose steps interleave
    in amplitude if ``slope`` > 0, so the largest-first loop alternates
    between them."""
    a = _staircase(n_steps, gap, 2.0 * slope)
    b = a.copy()
    b[1::gap][:n_steps] += slope
    return np.concatenate([a, np.zeros(n_steps * gap), b])


def _white_noise(n, seed):
    return np.abs(np.random.default_rng(seed).standard_normal(n))


class TestFindCandidates:
    @pytest.mark.parametrize("detector,peaks", [("ptpp", [1976]),
                                                ("pt", [1945])])
    def test_record_whose_integrated_signal_dips_below_zero(self, detector,
                                                           peaks):
        # Spikes near the record end: the smoothing kernel's negative taps
        # leave interior maxima of the ptpp integrated signal below zero,
        # which once ended the run with "peak amplitude must be >= 0".
        x = np.zeros(2000)
        x[[1942, 1945, 1976, 1994]] = [50.0, 500.0, 500.0, -3000.0]
        cfg = ptpp.default_pipeline_config(detector)
        integ = ptpp.run_pipeline(x, 128.0, cfg).integrated
        maxima = np.nonzero((integ[1:-1] > integ[:-2])
                            & (integ[1:-1] >= integ[2:]))[0] + 1
        assert (integ[maxima].min() < 0) == (detector == "ptpp")
        run = ptpp.run_detector(detector, x, 128.0)
        np.testing.assert_array_equal(run.r_peaks, peaks)
        assert run.provenance == ["threshold1"]

    def test_isolated_maxima(self):
        # at fs=1 the 231 ms separation rounds down to a single sample
        out = ptpp.find_candidates(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), 1.0)
        np.testing.assert_array_equal(out, [1, 3])

    def test_equal_maxima_keep_earlier(self):
        x = np.zeros(40)
        x[5] = 1.0
        x[15] = 1.0
        cfg = ptpp.DetectorConfig(min_peak_separation_ms=20.0)
        np.testing.assert_array_equal(ptpp.find_candidates(x, 1000.0, cfg), [5])

    def test_larger_maximum_survives(self):
        x = np.zeros(40)
        x[5] = 1.0
        x[15] = 2.0
        cfg = ptpp.DetectorConfig(min_peak_separation_ms=20.0)
        np.testing.assert_array_equal(ptpp.find_candidates(x, 1000.0, cfg), [15])

    def test_short_input(self):
        assert len(ptpp.find_candidates(np.array([1.0, 2.0]), FS)) == 0

    @hypothesis.given(x=hnp.arrays(np.float64, st.integers(10, 120),
                                   elements=st.floats(0, 100)),
                      sep_ms=st.floats(10.0, 300.0))
    def test_spacing_and_maximality(self, x, sep_ms):
        cfg = ptpp.DetectorConfig(min_peak_separation_ms=sep_ms)
        out = ptpp.find_candidates(x, FS, cfg)
        min_sep = ptpp.ms_to_samples(sep_ms, FS)
        assert np.all(np.diff(out) >= min_sep)
        for i in out:
            assert x[i] > x[i - 1] or x[i] >= x[i + 1]  # an interior maximum
            assert 0 < i < len(x) - 1

    @hypothesis.settings(deadline=None, max_examples=400)
    @hypothesis.given(
        x=st.one_of(
            # Few levels make ties and plateaus common; lengths 0-3 have no
            # interior sample or a single one. Maxima below zero are dropped,
            # and so is NaN; +inf is a maximum.
            hnp.arrays(np.float64, st.integers(0, 80),
                       elements=st.sampled_from([-np.inf, -2.0, -1.0, 0.0,
                                                 1.0, 2.0, 3.0, np.inf,
                                                 np.nan])),
            hnp.arrays(np.float64, st.integers(0, 3),
                       elements=st.floats(-100, 100)),
            hnp.arrays(np.float64, st.integers(4, 200),
                       elements=st.floats(-100, 100)),
            # Monotone or level staircases: the rounds stall on them.
            st.builds(_staircase, st.integers(1, 80), st.integers(2, 6),
                      st.sampled_from([-1.0, 0.0, 1.0])),
            st.builds(_two_staircases, st.integers(1, 40), st.integers(2, 6),
                      st.sampled_from([0.0, 1.0])),
            # Dense maxima: about one sample in three.
            st.builds(_white_noise, st.integers(3, 600),
                      st.integers(0, 2**32 - 1))),
        fs=st.one_of(st.sampled_from([128.0, 250.0, 360.0, 1000.0]),
                     st.floats(128.0, 1000.0)),
        # Up to a few samples, a record's worth, and far past any record,
        # where the spacing is clipped at len(x) + 1.
        sep_ms=st.one_of(st.floats(1.0, 30.0), st.floats(30.0, 400.0),
                         st.floats(1e3, 1e300)),
        block=st.sampled_from([1, 3, ptpp.detector._BLOCK_ITEMS]),
        finishes=st.none())
    # Eight steps 10 samples apart, spacing 11: each round keeps the top
    # step and marks the one below, two of eight, then of six, four and two,
    # never under a quarter, so the rounds decide everything. With nine, two
    # of nine is under a quarter: the largest-first loop finishes seven.
    @hypothesis.example(x=_staircase(8, 10, 1.0), fs=1000.0, sep_ms=11.0,
                        block=3, finishes=False)
    @hypothesis.example(x=_staircase(9, 10, 1.0), fs=1000.0, sep_ms=11.0,
                        block=3, finishes=True)
    # Steps 2 samples apart, spacing 10: the finish keeps steps exactly the
    # spacing apart, up and down the stairs, and between two staircases.
    @hypothesis.example(x=_staircase(40, 2, 1.0), fs=1000.0, sep_ms=10.0,
                        block=3, finishes=True)
    @hypothesis.example(x=_staircase(40, 2, -1.0), fs=1000.0, sep_ms=10.0,
                        block=3, finishes=True)
    @hypothesis.example(x=_two_staircases(40, 2, 1.0), fs=1000.0, sep_ms=10.0,
                        block=3, finishes=True)
    def test_matches_bisect_reference(self, x, fs, sep_ms, block, finishes):
        cfg = ptpp.DetectorConfig(min_peak_separation_ms=sep_ms)
        finish = mock.Mock(wraps=ptpp.detector._thin_greedily)
        with mock.patch.object(ptpp.detector, "_BLOCK_ITEMS", block), \
                mock.patch.object(ptpp.detector, "_thin_greedily", finish):
            out = ptpp.find_candidates(x, fs, cfg)
        reference = thinned_maxima_reference(x, ptpp.ms_to_samples(sep_ms, fs))
        np.testing.assert_array_equal(out, reference)
        assert out.dtype == np.int64
        if finishes is not None:
            assert finish.called == finishes

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(
        gaps=st.lists(st.integers(1, 6), max_size=40),
        levels=st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf]),
                        min_size=40, max_size=40),
        min_sep=st.integers(1, 12))
    # The outer maxima lie exactly the spacing apart, so they do not face
    # each other, and each outranks the middle one: both win.
    @hypothesis.example(gaps=[1, 1], levels=[2.0, 1.0, 2.0] + [0.0] * 37,
                        min_sep=2)
    def test_round_winners_outrank_every_near_maximum(self, gaps, levels,
                                                      min_sep):
        pos = np.cumsum([1] + gaps)
        val = np.array(levels[:len(pos)])
        keep = ptpp.detector._round_winners(pos, val, min_sep)
        # A later maximum outranks only if larger, an earlier one if larger
        # or equal.
        expected = [all(val[j] <= val[i] if j > i else val[j] < val[i]
                        for j in range(len(pos))
                        if j != i and abs(pos[j] - pos[i]) < min_sep)
                    for i in range(len(pos))]
        np.testing.assert_array_equal(keep, expected)

    @pytest.mark.parametrize("make,peak_per_byte", [
        # |white noise|: a maximum about every third sample.
        (lambda: _white_noise(1_000_000, 0), 1.30),
        # 100,000 rising steps: the rounds stall at once, and the
        # largest-first loop finishes all but a few dozen.
        (lambda: _staircase(100_000, 2, 1.0), 2.10)],
        ids=["noise", "staircase"])
    def test_traced_peak(self, make, peak_per_byte):
        # The maxima's positions and amplitudes, one round's masks and index
        # lists, or the finish's order; none of them outlives its use.
        x = make()
        peak = _traced_peak(lambda s: ptpp.find_candidates(s, 360.0), x)
        assert peak <= peak_per_byte * x.nbytes


class TestInitThresholds:
    def test_constant_first_window(self):
        s = ptpp.init_thresholds(np.full(250, 0.9), 100.0)
        assert abs(s.threshold1 - 0.3) < REL
        assert abs(s.threshold2 - 0.45) < REL
        assert abs(s.spk - 0.3) < REL
        assert abs(s.npk - 0.45) < REL

    def test_all_zero(self):
        s = ptpp.init_thresholds(np.zeros(300), 100.0)
        assert (s.spk, s.npk, s.threshold1, s.threshold2) == (0, 0, 0, 0)

    def test_single_spike_window(self):
        # 2 s at fs=5 is a 10-sample window: max 1.2, mean 0.12
        x = np.zeros(10)
        x[-1] = 1.2
        s = ptpp.init_thresholds(x, 5.0)
        assert abs(s.threshold1 - 0.4) < REL
        assert abs(s.threshold2 - 0.06) < REL

    def test_too_short(self):
        with pytest.raises(ptpp.InputTooShortError):
            ptpp.init_thresholds(np.zeros(199), 100.0)

    def test_default_ratio(self):
        assert ptpp.init_thresholds(np.zeros(300), 100.0).t2_ratio == 0.4

    def test_window_follows_config(self):
        # 1 s at fs=5 is the first 5 samples: the spike at sample 7 is out
        x = np.full(10, 0.3)
        x[7] = 3.0
        s = ptpp.init_thresholds(x, 5.0, ptpp.DetectorConfig(init_window_s=1.0))
        assert abs(s.threshold1 - 0.1) < REL

    def test_window_rounds_through_ms(self):
        # 0.145 s is 145 ms, 14.5 samples at 100 Hz, which rounds up to 15.
        cfg = ptpp.DetectorConfig(init_window_s=0.145)
        with pytest.raises(ptpp.InputTooShortError, match="need 15 samples"):
            ptpp.init_thresholds(np.zeros(14), 100.0, cfg)
        assert ptpp.init_thresholds(np.zeros(15), 100.0, cfg).threshold1 == 0

    def test_window_is_at_least_one_sample(self):
        # 2 s at fs=0.2 rounds to 0 samples; the first sample is used
        s = ptpp.init_thresholds(np.array([0.6]), 0.2)
        assert abs(s.threshold1 - 0.2) < REL
        assert abs(s.threshold2 - 0.3) < REL


class TestRule1:
    def test_fixed_point(self):
        s = ptpp.update_rule1(state(spk=1.0), 1.0, is_signal=True)
        assert abs(s.spk - 1.0) < REL

    def test_signal_from_zero(self):
        s = ptpp.update_rule1(state(), 1.0, is_signal=True)
        assert abs(s.spk - 0.125) < REL

    def test_noise_update(self):
        s = ptpp.update_rule1(state(npk=0.2), 0.1, is_signal=False)
        assert abs(s.npk - 0.1875) < REL

    def test_thresholds_recomputed(self):
        s = ptpp.update_rule1(state(spk=2.0, npk=1.0), 3.0, is_signal=True)
        assert abs(s.spk - 2.125) < REL
        assert abs(s.threshold1 - 1.28125) < REL
        assert abs(s.threshold2 - 0.5125) < REL

    def test_negative_peak_rejected(self):
        with pytest.raises(ptpp.ProcessingError):
            ptpp.update_rule1(state(), -0.1, is_signal=True)

    def test_geometric_convergence(self):
        s = state(spk=0.0)
        for k in range(1, 21):
            s = ptpp.update_rule1(s, 1.0, is_signal=True)
            assert abs((1.0 - s.spk) - 0.875 ** k) < REL

    @pytest.mark.parametrize("rule", [
        lambda s: ptpp.update_rule1(s, 1.0, is_signal=True),
        lambda s: ptpp.update_rule1(s, 1.0, is_signal=False),
        lambda s: ptpp.update_rule2(s, 1.0),
    ], ids=["rule1_signal", "rule1_noise", "rule2"])
    def test_input_state_unchanged(self, rule):
        # States are mutable; every public rule must return a new one.
        s0 = state(spk=0.5, npk=0.1, threshold1=0.2, threshold2=0.08)
        s1 = rule(s0)
        assert s1 is not s0 and s1 != s0
        assert s0 == state(spk=0.5, npk=0.1, threshold1=0.2, threshold2=0.08)


class TestRule2:
    def test_from_zero_state(self):
        s = ptpp.update_rule2(state(), 1.0)
        assert abs(s.spk - 0.75) < REL
        assert abs(s.npk - 0.75) < REL
        assert abs(s.threshold1 - 0.75) < REL
        assert abs(s.threshold2 - 0.30) < REL

    def test_fixed_point(self):
        s = ptpp.update_rule2(state(spk=0.4, npk=0.4), 0.4)
        assert abs(s.spk - 0.4) < REL and abs(s.npk - 0.4) < REL

    def test_both_estimates_pulled(self):
        s = ptpp.update_rule2(state(spk=1.0, npk=0.1), 0.4)
        assert abs(s.spk - 0.55) < REL
        assert abs(s.npk - 0.325) < REL


class TestThreshold3:
    def test_direct_substitution(self):
        assert abs(ptpp.threshold3(state(threshold2=0.4), 0.2) - 0.3) < REL

    def test_fixed_point(self):
        assert abs(ptpp.threshold3(state(threshold2=0.25), 0.25) - 0.25) < REL

    def test_six_peak_mean(self):
        meansb = float(np.mean([0.5, 0.6, 0.7, 0.4, 0.5, 0.3]))
        assert abs(meansb - 0.5) < REL
        assert abs(ptpp.threshold3(state(threshold2=0.4), meansb) - 0.45) < REL

    def test_zero_mean(self):
        assert ptpp.threshold3(state(threshold2=0.4), 0.0) == 0.2

    def test_negative_mean_rejected(self):
        with pytest.raises(ptpp.ProcessingError, match="meansb must be >= 0"):
            ptpp.threshold3(state(), -0.1)


class TestMeanSlope:
    def test_constant_segment(self):
        assert ptpp.mean_slope(np.full(50, 2.0), 30, FS) == 0.0

    def test_ramp_slope(self):
        x = 0.05 * np.arange(50)
        assert abs(ptpp.mean_slope(x, 30, FS) - 0.05) < REL

    def test_homogeneity(self):
        x = np.random.default_rng(0).normal(size=60)
        base = ptpp.mean_slope(x, 40, FS)
        assert abs(ptpp.mean_slope(3.0 * x, 40, FS) - 3.0 * base) < 1e-9 * base

    def test_truncated_at_record_start(self):
        x = np.arange(50.0)
        assert abs(ptpp.mean_slope(x, 3, FS) - 1.0) < REL
        assert ptpp.mean_slope(x, 0, FS) == 0.0
        # differences 1, 3, 5: the window starts at sample 0, not 1
        assert ptpp.mean_slope(x ** 2, 3, FS) == 3.0

    def test_two_samples_give_one_difference(self):
        assert ptpp.mean_slope(np.array([0.0, 2.0, 9.0]), 1, FS) == 2.0

    def test_window_is_trailing(self):
        # slope 1 before idx, slope 9 after: only the trailing side counts
        x = np.concatenate([np.arange(31.0), 30.0 + 9.0 * np.arange(1, 20)])
        assert abs(ptpp.mean_slope(x, 30, FS) - 1.0) < REL

    def test_window_follows_config(self):
        # Differences 2k + 1: the mean over the 7 (70 ms) or 20 (200 ms)
        # differences ending at sample 50.
        x = np.arange(100.0) ** 2
        assert ptpp.mean_slope(x, 50, FS) == 93.0
        cfg = ptpp.DetectorConfig(twave_slope_window_ms=200.0)
        assert ptpp.mean_slope(x, 50, FS, cfg) == 80.0

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        x=hnp.arrays(np.float64, st.integers(0, 12),
                     elements=st.floats(-1e6, 1e6)),
        idx=st.integers(0, 3) | st.integers(0, 15),
        window_ms=st.sampled_from([10.0, 20.0, 30.0, 70.0]))
    def test_bytes_match_literal_mean_of_diff(self, x, idx, window_ms):
        # Windows of 1, 2, 3 and 7 samples, so segments of 0-3 samples,
        # also at the record start, as well as full ones.
        cfg = ptpp.DetectorConfig(twave_slope_window_ms=window_ms)
        seg = x[max(0, idx - ptpp.ms_to_samples(window_ms, FS)):idx + 1]
        want = np.mean(np.abs(np.diff(seg))) if len(seg) >= 2 else 0.0
        got = ptpp.mean_slope(x, idx, FS, cfg)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# Decision-loop scenarios


class TestDecisionLoop:
    def test_clean_train_all_threshold1(self):
        x = np.zeros(1000)
        apices = list(range(25, 1000, 50))
        for a in apices:
            add_triangle(x, a, 1.0)
        result = ptpp.detect(make_stages(x), FS)
        np.testing.assert_array_equal(result.r_peaks, apices)
        assert result.provenance == [VIA_THRESHOLD1] * len(apices)
        assert result.rejected == []

    def test_peak_equal_to_threshold1_is_noise(self):
        # threshold1 starts at max/3 of the first 2 s: the first hump, at
        # exactly that height, does not exceed it on either channel
        x = np.zeros(300)
        add_triangle(x, 25, 1.0 / 3.0)
        add_triangle(x, 125, 1.0)
        result = ptpp.detect(make_stages(x), FS)
        np.testing.assert_array_equal(result.r_peaks, [125])
        assert result.rejected == [(25, REJECT_BELOW)]

    def test_twave_rejected_by_slope(self):
        # nine beats at RR=2 s build rr_mean=200 samples; a broad hump 90
        # samples after the last beat is early (90 < 0.5*200) and flat
        integ = np.zeros(1800)
        filt = np.zeros(1800)
        apices = list(range(25, 1700, 200))
        for a in apices:
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 1715, 0.5, half_width=40)
        add_triangle(filt, 1715, 0.5, half_width=40)
        result = ptpp.detect(make_stages(integ, filt), FS)
        np.testing.assert_array_equal(result.r_peaks, apices)
        assert (1715, REJECT_TWAVE) in result.rejected

    def test_early_sharp_beat_passes_slope_test(self):
        # same timing, but the early hump is as steep as a real beat
        integ = np.zeros(1800)
        apices = list(range(25, 1700, 200))
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 1715, 1.0)
        result = ptpp.detect(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks, apices + [1715])
        assert result.provenance[-1] == VIA_THRESHOLD1

    def test_searchback_inserts_conjunctive_failure(self):
        # the hump at 320 is solid in the integrated channel but absent from
        # the band-passed channel, so the two-channel amplitude test drops it;
        # the next long RR (195 samples > 1 s) triggers search-back and the
        # hump clears threshold3
        integ = np.zeros(700)
        filt = np.zeros(700)
        for a in (25, 125, 225, 420):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 320, 0.8)  # integrated only
        trace = []
        result = ptpp.detect(make_stages(integ, filt), FS, trace=trace)
        np.testing.assert_array_equal(result.r_peaks, [25, 125, 225, 320, 420])
        assert result.provenance == [VIA_THRESHOLD1] * 3 + [VIA_SEARCHBACK,
                                                            VIA_THRESHOLD1]
        assert (320, REJECT_BELOW) in result.rejected

        # the rejection fed the noise estimate of the integrated channel
        by_cand = {i: s_i for i, s_i, _ in trace}
        assert by_cand[320].npk > by_cand[225].npk

    @pytest.mark.parametrize("last,expected", [
        (325, [25, 125, 225, 325]), (326, [25, 125, 225, 275, 326])])
    def test_search_back_needs_a_gap_longer_than_1_s(self, last, expected):
        # 1 s is exactly 100 samples: the integrated-only hump at 275 is
        # searched for only when the next beat comes later than 325
        integ = np.zeros(500)
        filt = np.zeros(500)
        for a in (25, 125, 225, last):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 275, 0.8)
        result = ptpp.detect(make_stages(integ, filt), FS)
        np.testing.assert_array_equal(result.r_peaks, expected)

    @pytest.mark.parametrize("last,bar,tag", [
        (360, lambda s: s.threshold3(1.0), VIA_SEARCHBACK),
        (375, lambda s: 0.2 * s.threshold2, VIA_SPIKE_RECOVERY)])
    def test_search_back_bars_are_strict(self, last, bar, tag):
        # The search-back window opens at 261 on the falling side of the beat
        # at 225, so its first sample is its maximum and no candidate. Set
        # to the bar exactly it is no beat; one ulp higher it is. meansb is
        # 1.0: three beats behind and one candidate ahead, all of height 1.
        integ = np.zeros(500)
        filt = np.zeros(500)
        for a in (25, 125, 225, last):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        integ[226:261] = np.linspace(0.99, 0.95, 35)
        trace: list = []
        ptpp.detect(make_stages(integ, filt), FS, trace=trace)
        lead = {i: s_i for i, s_i, _ in trace}[225]
        for value, found in ((bar(lead), False),
                             (np.nextafter(bar(lead), np.inf), True)):
            integ[261] = value
            result = ptpp.detect(make_stages(integ, filt), FS)
            assert (261 in result.r_peaks) == found
            assert (tag in result.provenance) == found

    def test_spike_recovery_low_bar(self):
        # two strong beats, then only small humps: threshold3 stays out of
        # reach (it averages the strong history) but after 1.4 s the
        # 0.2*threshold2 bar picks up the larger small hump
        integ = np.zeros(600)
        for a in (25, 125):
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 250, 0.12)
        add_triangle(integ, 475, 0.10)
        result = ptpp.detect(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks, [25, 125, 250])
        assert result.provenance == [VIA_THRESHOLD1, VIA_THRESHOLD1,
                                     VIA_SPIKE_RECOVERY]
        assert (250, REJECT_BELOW) in result.rejected
        assert (475, REJECT_BELOW) in result.rejected

    @pytest.mark.parametrize("last,expected", [
        (265, [25, 125]), (266, [25, 125, 200])])
    def test_spike_recovery_needs_a_gap_longer_than_1_4_s(self, last,
                                                          expected):
        # 1.4 s is exactly 140 samples. The gap from 125 to 265 equals it,
        # so only threshold3 may pick up the 0.12 hump at 200, and it is
        # too low for that; one sample later the 0.2*threshold2 bar does.
        integ = np.zeros(400)
        for a in (25, 125):
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 200, 0.12)
        add_triangle(integ, last, 0.10)
        result = ptpp.detect(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks, expected)
        assert result.provenance[2:] == [VIA_SPIKE_RECOVERY] * (
            len(expected) - 2)

    def test_search_back_over_a_one_sample_window(self):
        # A 0.5 s trigger lets the 59-sample RR from 225 to 284 search back.
        # The window starts one blank (36) after 225 and ends one spacing
        # (23) before 284: the single sample 261, an integrated-only hump
        # that the two-channel amplitude test dropped.
        integ = np.zeros(400)
        filt = np.zeros(400)
        for a in (25, 125, 225, 284):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 261, 0.8)
        result = ptpp.detect(make_stages(integ, filt), FS,
                             ptpp.DetectorConfig(searchback_abs_s=0.5))
        np.testing.assert_array_equal(result.r_peaks,
                                      [25, 125, 225, 261, 284])
        assert result.provenance == [VIA_THRESHOLD1] * 3 + [VIA_SEARCHBACK,
                                                            VIA_THRESHOLD1]
        assert result.rejected == [(261, REJECT_BELOW)]

    @pytest.mark.parametrize("n,twave", [(3, True), (4, True), (5, False),
                                         (8, False)])
    def test_rr_mean_spans_the_last_n_beats(self, n, twave):
        # Nine RRs of 60 samples, then three of 120. A flat hump 50 samples
        # after the last beat faces the slope test only if 50 < 0.5 x the
        # mean of the last n RRs: 120, 105, 96 and 82.5 for n = 3, 4, 5, 8.
        integ = np.zeros(1100)
        apices = list(range(25, 566, 60)) + [685, 805, 925]
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 975, 0.5, half_width=40)
        result = ptpp.detect(make_stages(integ), FS,
                             ptpp.DetectorConfig(rr_history_beats=n))
        assert ((975, REJECT_TWAVE) in result.rejected) == twave
        np.testing.assert_array_equal(
            result.r_peaks, apices if twave else apices + [975])

    @pytest.mark.parametrize("beats,offset", [(4, 36), (9, 50)])
    def test_twave_windows_exclude_their_end(self, beats, offset):
        # A flat hump 360 ms after a beat (4 beats, no rr_mean yet), or at
        # exactly 0.5 * rr_mean (9 beats, rr_mean 100), faces no slope test:
        # both T-wave windows are open at their end
        integ = np.zeros(1000)
        apices = list(range(25, 25 + 100 * beats, 100))
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, apices[-1] + offset, 0.5, half_width=40)
        result = ptpp.detect(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks,
                                      apices + [apices[-1] + offset])

    def test_slope_equal_to_the_ratio_passes(self):
        # Mean slopes over the 7-sample window: 35 / 7 = 5.0 for the beat at
        # 125 and 21 / 7 = 3.0 for the candidate 30 samples later; 3.0 is
        # exactly 0.6 * 5.0, which is not below it
        integ = np.zeros(300)
        filt = np.zeros(300)
        for a in (25, 125, 155):
            add_triangle(integ, a, 1.0)
        filt[[25, 125, 155]] = [35.0, 35.0, 21.0]
        result = ptpp.detect(make_stages(integ, filt), FS)
        np.testing.assert_array_equal(result.r_peaks, [25, 125, 155])

    def test_slope_before_the_stage_delay_reads_sample_0(self):
        # Both beats lie within the 50 samples the later stages delay the
        # integrated signal, so both slopes are read at band-passed sample 0
        # (0.0 each) and the second beat is no T-wave
        integ = np.zeros(300)
        for a in (10, 40):
            add_triangle(integ, a, 1.0)
        filt = np.zeros(300)
        filt[1] = 0.5
        z = np.zeros(300)
        stages = ptpp.StageOutputs(
            filtered=filt, derived=z, squared=z, smoothed=z,
            integrated=integ,
            stage_delays_samples={**zero_delays(), "square": 50})
        result = ptpp.detect(stages, FS)
        np.testing.assert_array_equal(result.r_peaks, [10, 40])

    def test_slow_rhythm_never_halves(self):
        # RR 38 after eight RRs of 400 is below 0.1 * rr_mean, yet the
        # Pan-Tompkins++ halving band (0, inf) holds every RR
        integ = np.zeros(3400)
        apices = list(range(25, 3300, 400)) + [3263]
        for a in apices:
            add_triangle(integ, a, 1.0)
        trace: list = []
        result = ptpp.detect(make_stages(integ), FS, trace=trace)
        np.testing.assert_array_equal(result.r_peaks, apices)
        for _, *states in trace:
            for s_i in states:
                assert s_i.threshold1 == pytest.approx(
                    s_i.npk + 0.25 * (s_i.spk - s_i.npk), rel=1e-12)

    def test_no_candidates_empty_result(self):
        result = ptpp.detect(make_stages(np.zeros(300)), FS)
        assert len(result.r_peaks) == 0
        assert result.provenance == []
        assert result.rejected == []

    def test_too_short_for_init(self):
        with pytest.raises(ptpp.InputTooShortError):
            ptpp.detect(make_stages(np.zeros(150)), FS)

    def test_invalid_config_rejected(self):
        cfg = ptpp.DetectorConfig(min_peak_separation_ms=-1)
        with pytest.raises(ptpp.ConfigError):
            ptpp.detect(make_stages(np.zeros(300)), FS, cfg)

    def test_threshold_coupling_throughout(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=20.0,
                                                  noise_snr_db=10.0, seed=5))
        stages = ptpp.run_pipeline(record.channels[0].samples, 360.0)
        trace = []
        ptpp.detect(stages, 360.0, trace=trace)
        assert trace
        for _, s_i, s_f in trace:
            for s in (s_i, s_f):
                assert s.threshold2 == pytest.approx(0.4 * s.threshold1,
                                                     rel=1e-12, abs=1e-300)
                assert s.threshold1 == pytest.approx(
                    s.npk + 0.25 * (s.spk - s.npk), rel=1e-12, abs=1e-300)

    def test_refractory_spacing_invariant(self):
        for seed in range(3):
            record, _ = ptpp.synth_ecg(ptpp.SynthSpec(
                duration_s=30.0, noise_snr_db=6.0, seed=seed))
            stages = ptpp.run_pipeline(record.channels[0].samples, 360.0)
            result = ptpp.detect(stages, 360.0)
            assert np.all(np.diff(result.r_peaks)
                          >= ptpp.ms_to_samples(231, 360.0))

    def test_deterministic(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=20.0,
                                                  noise_snr_db=10.0, seed=6))
        stages = ptpp.run_pipeline(record.channels[0].samples, 360.0)
        a = ptpp.detect(stages, 360.0)
        b = ptpp.detect(stages, 360.0)
        np.testing.assert_array_equal(a.r_peaks, b.r_peaks)
        assert a.provenance == b.provenance
        assert a.rejected == b.rejected

    def test_amplitude_scale_leaves_decisions_unchanged(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=20.0,
                                                  noise_snr_db=12.0, seed=7))
        x = record.channels[0].samples
        base = ptpp.detect(ptpp.run_pipeline(x, 360.0), 360.0)
        for alpha in (0.1, 10.0):
            scaled = ptpp.detect(ptpp.run_pipeline(alpha * x, 360.0), 360.0)
            np.testing.assert_array_equal(scaled.r_peaks, base.r_peaks)
            assert scaled.provenance == base.provenance


class TestLocalize:
    def _result(self, indices):
        return ptpp.DetectionResult(
            r_peaks=np.asarray(indices, dtype=np.int64),
            provenance=[VIA_THRESHOLD1] * len(indices), rejected=[])

    def test_zero_delay_symmetric_pulse_exact(self):
        raw = np.zeros(300)
        add_triangle(raw, 100, 1.0)
        out = ptpp.localize_rpeaks(raw, self._result([100]), zero_delays(), FS)
        np.testing.assert_array_equal(out, [100])

    def test_negative_pulse_found_by_magnitude(self):
        raw = np.zeros(300)
        add_triangle(raw, 100, 1.0)
        out = ptpp.localize_rpeaks(-raw, self._result([100]), zero_delays(), FS)
        np.testing.assert_array_equal(out, [100])

    def test_edge_clipped(self):
        raw = np.zeros(100)
        add_triangle(raw, 3, 1.0)
        delays = dict(zero_delays(), mwi=50)
        out = ptpp.localize_rpeaks(raw, self._result([2]), delays, FS)
        np.testing.assert_array_equal(out, [3])

    def test_colliding_detections_collapse(self):
        raw = np.zeros(300)
        add_triangle(raw, 98, 1.0)
        out = ptpp.localize_rpeaks(raw, self._result([100, 104]),
                                   zero_delays(), FS)
        np.testing.assert_array_equal(out, [98])

    def test_empty(self):
        out = ptpp.localize_rpeaks(np.zeros(10), self._result([]),
                                   zero_delays(), FS)
        assert len(out) == 0

    def test_empty_record(self):
        out = ptpp.localize_rpeaks(np.zeros(0), self._result([5]),
                                   zero_delays(), FS)
        assert out.dtype == np.int64 and len(out) == 0

    def test_integer_record_apex_at_its_most_negative_code(self):
        # |int16 min| does not fit an int16; the apex is read in float64.
        raw = np.zeros(100, dtype=np.int16)
        raw[40], raw[50] = 1000, -32768
        out = ptpp.localize_rpeaks(raw, self._result([45]), zero_delays(), FS)
        np.testing.assert_array_equal(out, [50])

    def test_collapse_keeps_the_first_detection(self):
        raw = np.zeros(300)
        add_triangle(raw, 100, 1.0)
        add_triangle(raw, 200, 1.0)
        sources: list[int] = []
        out = ptpp.localize_rpeaks(raw, self._result([96, 100, 104, 200]),
                                   zero_delays(), FS, sources=sources)
        np.testing.assert_array_equal(out, [100, 200])
        assert sources == [0, 3]

    @hypothesis.settings(deadline=None)
    @hypothesis.given(
        # Sparse arrays of few distinct levels make ties common, all-zero
        # windows included; NaN and ±inf must land where the loop's argmax
        # put them, and -0.0 ties with 0.0.
        raw=hnp.arrays(np.float64, st.integers(1, 400),
                       elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0,
                                                 -2.0, np.nan, np.inf,
                                                 -np.inf]),
                       fill=st.just(0.0)),
        dets=st.lists(st.integers(-50, 500), max_size=40),
        delay=st.integers(0, 60),
        fs=st.sampled_from([FS, 360.0, 1000.0]),
        block_bytes=st.sampled_from([1, 200, 1 << 19]))
    def test_matches_per_detection_loop(self, raw, dets, delay, fs,
                                        block_bytes):
        delays = dict(zero_delays(), mwi=delay)
        sources: list[int] = []
        with mock.patch.object(ptpp.detector, "_LOCALIZE_BLOCK_BYTES",
                               block_bytes):
            out = ptpp.localize_rpeaks(raw, self._result(sorted(dets)), delays,
                                       fs, sources=sources)
        peaks, kept = localize_reference(raw, sorted(dets), delay, fs)
        np.testing.assert_array_equal(out, peaks)
        assert sources == kept

    def test_end_to_end_apex_within_two_samples(self):
        record, truth = ptpp.synth_ecg(
            ptpp.SynthSpec(duration_s=10.0, heart_rate_bpm=21.0))
        run = ptpp.run_detector("ptpp", record.channels[0].samples, 360.0)
        assert len(run.r_peaks) == len(truth.beat_samples)
        assert np.max(np.abs(run.r_peaks - truth.beat_samples)) <= 2


class TestBandAmplitude:
    """The band channel's amplitudes, all taken in one blocked windowed max
    with windows cut at the record ends, against the decision loop's original
    per-candidate slice max."""

    @hypothesis.settings(deadline=None)
    @hypothesis.given(
        filtered=hnp.arrays(np.float64, st.integers(1, 300),
                            elements=st.sampled_from([0.0, -0.0, 1.0, -1.0,
                                                      2.0, -2.0, np.nan,
                                                      np.inf, -np.inf]),
                            fill=st.just(0.0)),
        # Centres run past both record ends; the delay may exceed the record.
        idx=st.lists(st.integers(0, 700), max_size=30),
        align=st.integers(0, 400),
        fs=st.sampled_from([FS, 360.0, 1000.0]),
        block_bytes=st.sampled_from([1, 200,
                                     ptpp.detector._LOCALIZE_BLOCK_BYTES]))
    def test_matches_per_candidate_slice_max(self, filtered, idx, align, fs,
                                             block_bytes):
        w = ptpp.ms_to_samples(ptpp.detector.LOCALIZE_HALF_WINDOW_S * 1000.0,
                               fs)
        with mock.patch.object(ptpp.detector, "_LOCALIZE_BLOCK_BYTES",
                               block_bytes):
            abs_filt = np.abs(filtered)
            out = abs_filt[_window_argmax(
                abs_filt, w, np.asarray(idx, dtype=np.int64) - align)]
        expected = [band_peak_reference(filtered, i, align, fs) for i in idx]
        np.testing.assert_array_equal(out, np.asarray(expected, dtype=float))

    def test_aligned_by_every_stage_after_the_band_pass(self):
        # The band-passed peak sits 10 samples before the integrated hump,
        # and all 10 samples of delay are on "square".
        integ = np.zeros(600)
        add_triangle(integ, 300, 1.0)
        filt = np.zeros(600)
        filt[290] = 3.0
        z = np.zeros(600)
        stages = ptpp.StageOutputs(
            filtered=filt, derived=z, squared=z, smoothed=z,
            integrated=integ,
            stage_delays_samples={**zero_delays(), "square": 10})
        trace: list = []
        result = ptpp.detect(stages, FS, trace=trace)
        assert result.provenance == [VIA_THRESHOLD1]
        [(i, _, band_state)] = trace
        assert i == 300
        assert band_state.spk == 0.125 * 3.0

    def test_no_delay_table_means_no_delay(self):
        # Two band-passed peaks sit on the window's edges, 8 samples before
        # 125 and after 225: a window off by one sample misses one of them.
        integ = np.zeros(400)
        filt = np.zeros(400)
        for a in (25, 125, 225, 325):
            add_triangle(integ, a, 1.0)
        w = ptpp.ms_to_samples(75.0, FS)
        filt[[25, 125 - w, 225 + w, 325]] = 1.0
        z = np.zeros(400)
        stages = ptpp.StageOutputs(filtered=filt, derived=z, squared=z,
                                   smoothed=z, integrated=integ)
        result = ptpp.detect(stages, FS)
        np.testing.assert_array_equal(result.r_peaks, [25, 125, 225, 325])
        assert result.provenance == [VIA_THRESHOLD1] * 4

    def test_search_back_find_takes_its_own_window(self):
        # The hump at 320 has no band-passed counterpart, so it is rejected
        # and later found by the search-back that the beat at 420 triggers.
        # The band channel adapts to the find's own amplitude (0.0), then to
        # the triggering candidate's (1.0).
        integ = np.zeros(700)
        filt = np.zeros(700)
        for a in (25, 125, 225, 420):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 320, 0.8)
        trace: list = []
        result = ptpp.detect(make_stages(integ, filt), FS, trace=trace)
        assert result.provenance[3] == VIA_SEARCHBACK
        band = {i: band_state for i, _, band_state in trace}
        expected = replace(band[320])
        expected.fast(0.0)
        expected.signal(1.0)
        assert band[420] == expected

    @pytest.mark.parametrize("offset,amplitude", [
        (-8, 0.05), (8, 0.05), (-9, 0.0), (9, 0.0)],
        ids=["left_edge", "right_edge", "before", "after"])
    def test_search_back_find_window_edges(self, offset, amplitude):
        # As above, with a small band-passed sample 8 samples (75 ms at
        # FS) or 9 samples from the find: only the window's edges count.
        integ = np.zeros(700)
        filt = np.zeros(700)
        for a in (25, 125, 225, 420):
            add_triangle(integ, a, 1.0)
            add_triangle(filt, a, 1.0)
        add_triangle(integ, 320, 0.8)
        filt[320 + offset] = -0.05
        trace: list = []
        result = ptpp.detect(make_stages(integ, filt), FS, trace=trace)
        assert result.provenance[3] == VIA_SEARCHBACK
        band = {i: band_state for i, _, band_state in trace}
        expected = replace(band[320])
        expected.fast(amplitude)
        expected.signal(1.0)
        assert band[420] == expected


def _traced_peak(run, x):
    """Peak bytes ``run(x)`` allocates beyond what is live when it starts."""
    run(x[:3600])  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(x)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestRunDetectorMemory:
    @pytest.fixture(scope="class")
    def x(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=600.0, seed=3))
        return record.channels[0].samples

    @pytest.mark.parametrize("detector", ptpp.DETECTORS)
    def test_peak_within_three_and_a_quarter_records(self, detector, x):
        # Three stage arrays at once: the band-passed signal, the working
        # stage and the next one (the derivative's temporary, a convolution
        # output); no full-length padded copy, no stage outliving its reader.
        peak = _traced_peak(lambda s: ptpp.run_detector(detector, s, 360.0),
                            x)
        assert peak <= 3.25 * x.nbytes

    def test_pipeline_with_every_stage_within_five_and_a_quarter_records(
            self, x):
        # The default keeps all five stages for ``stages``; nothing more.
        peak = _traced_peak(lambda s: ptpp.run_pipeline(s, 360.0), x)
        assert peak <= 5.25 * x.nbytes
