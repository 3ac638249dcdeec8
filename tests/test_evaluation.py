"""Matching, metrics, synthetic-record generation, and timing tests."""

import time
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import ptpp

from helpers import match_beats_reference

FS = 360.0


def annset(indices):
    return ptpp.AnnotationSet(beat_samples=np.asarray(indices, dtype=np.int64),
                              beat_labels=None, source_format="test")


sorted_indices = st.lists(st.integers(0, 100_000), max_size=40,
                          unique=True).map(sorted)


class TestMatchBeats:
    def test_offset_inside_window(self):
        r = ptpp.match_beats([395], annset([360]), FS, tolerance_ms=100.0)
        assert (r.tp, r.fp, r.fn) == (1, 0, 0)
        assert r.matched_pairs == [(360, 395)]

    def test_offset_just_outside_window(self):
        # 100 ms at 360 Hz is 36 samples; 37 misses
        r = ptpp.match_beats([397], annset([360]), FS, tolerance_ms=100.0)
        assert (r.tp, r.fp, r.fn) == (0, 1, 1)
        assert r.matched_pairs == []

    def test_boundary_is_inclusive(self):
        r = ptpp.match_beats([396], annset([360]), FS, tolerance_ms=100.0)
        assert r.tp == 1

    def test_one_to_one_constraint(self):
        # one detection between two references pairs with exactly one of them
        r = ptpp.match_beats([150], annset([100, 200]), 1000.0,
                             tolerance_ms=60.0)
        assert (r.tp, r.fp, r.fn) == (1, 0, 1)
        assert len(r.matched_pairs) == 1

    def test_empty_sides(self):
        r = ptpp.match_beats([], annset([10, 20]), FS)
        assert (r.tp, r.fp, r.fn) == (0, 0, 2)
        r = ptpp.match_beats([10, 20], annset([]), FS)
        assert (r.tp, r.fp, r.fn) == (0, 2, 0)

    @pytest.mark.parametrize("fs", [0.0, -360.0, np.nan, np.inf])
    def test_bad_sampling_rate_rejected(self, fs):
        with pytest.raises(ptpp.ConfigError, match="sampling rate"):
            ptpp.match_beats([10], annset([10]), fs)

    def test_unsorted_rejected(self):
        with pytest.raises(ptpp.ProcessingError):
            ptpp.match_beats([20, 10], annset([10]), FS)
        with pytest.raises(ptpp.ProcessingError):
            ptpp.match_beats([10], annset([20, 10]), FS)

    @pytest.mark.parametrize("match", [ptpp.match_beats, match_beats_reference],
                             ids=["match_beats", "reference"])
    def test_sorted_span_past_int64_accepted(self, match):
        # The span is 2^63 + 2, which wraps negative as an int64 difference.
        wide = [-2 ** 62 - 1, 2 ** 62 + 1]
        r = match(wide, annset(wide), FS)
        assert (r.tp, r.fp, r.fn) == (2, 0, 0)
        with pytest.raises(ptpp.ProcessingError):
            match(wide[::-1], annset(wide), FS)
        with pytest.raises(ptpp.ProcessingError):
            match(wide, annset(wide[::-1]), FS)

    def test_record_id_carried(self):
        r = ptpp.match_beats([1], annset([1]), FS, record_id="r42")
        assert r.record_id == "r42"

    def test_counts_are_consistent(self):
        det = [100, 300, 500, 900]
        ref = [105, 310, 700]
        r = ptpp.match_beats(det, annset(ref), FS)
        assert r.tp == len(r.matched_pairs)
        assert r.tp + r.fp == len(det)
        assert r.tp + r.fn == len(ref)
        tol = int(100.0 * FS / 1000.0 + 0.5)
        for ref_i, det_i in r.matched_pairs:
            assert abs(det_i - ref_i) <= tol

    @hypothesis.given(det=sorted_indices, ref=sorted_indices,
                      tol=st.floats(1.0, 500.0))
    def test_symmetry_swaps_fp_fn(self, det, ref, tol):
        fwd = ptpp.match_beats(det, annset(ref), FS, tolerance_ms=tol)
        rev = ptpp.match_beats(ref, annset(det), FS, tolerance_ms=tol)
        assert fwd.tp == rev.tp
        assert fwd.fp == rev.fn
        assert fwd.fn == rev.fp

    @hypothesis.given(det=sorted_indices, ref=sorted_indices,
                      tol=st.floats(1.0, 250.0))
    def test_tolerance_monotonicity(self, det, ref, tol):
        narrow = ptpp.match_beats(det, annset(ref), FS, tolerance_ms=tol)
        wide = ptpp.match_beats(det, annset(ref), FS, tolerance_ms=2 * tol)
        assert wide.tp >= narrow.tp

    # Small indices, and indices near +-2^62, where int64 differences of a
    # negative and a positive index overflow; unsorted lists as well.
    _index_lists = st.lists(
        st.one_of(st.integers(-50, 400),
                  st.integers(2 ** 62 - 400, 2 ** 62 + 400),
                  st.integers(-2 ** 62 - 400, -2 ** 62 + 400)),
        max_size=30)

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(det=st.one_of(_index_lists.map(sorted), _index_lists),
                      ref=st.one_of(_index_lists.map(sorted), _index_lists),
                      tol=st.sampled_from([0.0, 100.0, 1e6, -1.0, np.nan]),
                      fs=st.sampled_from([FS, 1000.0]))
    def test_matches_per_element_reference(self, det, ref, tol, fs):
        det = np.asarray(det, dtype=np.int64)
        outcomes = []
        for match in (ptpp.match_beats, match_beats_reference):
            try:
                outcomes.append(match(det, annset(ref), fs, tolerance_ms=tol,
                                      record_id="r"))
            except ptpp.PtppError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def report(tp, fp, fn, record_id="r"):
    return ptpp.MatchReport(record_id=record_id, tp=tp, fp=fp, fn=fn,
                            matched_pairs=[], tolerance_ms=100.0)


class TestMetrics:
    def test_symmetric_counts(self):
        m = ptpp.metrics([report(9, 1, 1)])
        assert m.ppv == pytest.approx(0.9)
        assert m.sensitivity == pytest.approx(0.9)
        assert m.f_score == pytest.approx(0.9)
        assert m.fp_rate == pytest.approx(0.1)
        assert m.fn_rate == pytest.approx(0.1)

    def test_degenerate_denominators(self):
        m = ptpp.metrics([report(0, 0, 5)])
        assert m.ppv is None
        assert m.sensitivity == 0.0
        assert m.f_score is None

    def test_pooled_sums_not_averaged_ratios(self):
        m = ptpp.metrics([report(8, 2, 0, "a"), report(2, 0, 2, "b")])
        assert m.ppv == pytest.approx(10 / 12)
        assert m.sensitivity == pytest.approx(10 / 12)
        assert m.f_score == pytest.approx(10 / 12)

    def test_single_report_equals_per_record(self):
        one = ptpp.metrics([report(7, 2, 3)])
        assert one.ppv == pytest.approx(7 / 9)
        assert one.sensitivity == pytest.approx(7 / 10)
        expected_f = 2 * one.ppv * one.sensitivity / (one.ppv + one.sensitivity)
        assert one.f_score == pytest.approx(expected_f)

    def test_empty_reports_rejected(self):
        with pytest.raises(ptpp.ProcessingError):
            ptpp.metrics([])

    def test_execution_time_carried(self):
        assert ptpp.metrics([report(1, 0, 0)],
                            execution_time_s=1.5).execution_time_s == 1.5

    def test_all_zero_counts(self):
        m = ptpp.metrics([report(0, 0, 0)])
        assert m.ppv is None and m.sensitivity is None and m.f_score is None


class TestSynthSpec:
    def test_defaults(self):
        spec = ptpp.SynthSpec()
        assert spec.fs == 360.0
        assert spec.duration_s == 60.0
        assert spec.heart_rate_bpm == 80.0
        assert spec.t_wave is True

    def test_from_dict_round_trip(self):
        spec = ptpp.SynthSpec.from_dict(
            {"duration_s": 10.0, "spike": [5.0, 10.0], "seed": 3})
        assert spec.duration_s == 10.0
        assert spec.spike == (5.0, 10.0)
        assert spec.seed == 3

    def test_from_dict_unknown_key(self):
        with pytest.raises(ptpp.ConfigError):
            ptpp.SynthSpec.from_dict({"durationn_s": 10.0})

    @pytest.mark.parametrize("bad", [
        dict(heart_rate_bpm=20.0),       # the cap range is (20, 260]
        dict(heart_rate_bpm=260.5),
        dict(duration_s=0.0),
        dict(fs=-1.0),
        dict(fs=-1.0, duration_s=-60.0),  # a positive sample count
        dict(qrs_width_ms=0.0),
        dict(t_wave_width_ms=-1.0),
        dict(t_wave_delay_ms=0.0),
        dict(rr_jitter_frac=0.5),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ptpp.ConfigError):
            ptpp.SynthSpec(**bad).validate()

    def test_upper_bpm_boundary_allowed(self):
        ptpp.SynthSpec(heart_rate_bpm=260.0).validate()

    @pytest.mark.parametrize("field,scalar,number", [
        ("heart_rate_bpm", np.int64(80), 80),
        ("heart_rate_bpm", np.float32(80.0), 80.0),
        ("heart_rate_bpm", [[0.0, np.int64(80)]], [[0.0, 80]]),
        ("qrs_amplitude_mv", np.int64(1), 1),
        ("qrs_amplitude_mv", [np.float32(0.5), 1.0], [0.5, 1.0]),
    ])
    def test_numpy_scalar_renders_as_python_number(self, field, scalar,
                                                   number):
        def render(value):
            record, truth = ptpp.synth_ecg(
                ptpp.SynthSpec(duration_s=5.0, **{field: value}))
            return (record.channels[0].samples.tobytes(),
                    truth.beat_samples.tobytes())
        assert render(scalar) == render(number)

    @pytest.mark.parametrize("field,value", [
        ("noise_snr_db", np.float32("nan")),
        ("t_wave_amplitude", np.float32("inf")),
        ("heart_rate_bpm", np.float32("nan")),
        ("qrs_amplitude_mv", [np.float64(1.0), np.float32("-inf")]),
    ])
    def test_non_finite_numpy_scalar_refused(self, field, value):
        with pytest.raises(ptpp.ConfigError, match=f"{field} must be finite"):
            ptpp.SynthSpec(**{field: value}).validate()


class TestSynthEcg:
    def test_beat_count_60s_80bpm(self):
        _, truth = ptpp.synth_ecg(ptpp.SynthSpec())
        assert abs(len(truth.beat_samples) - 80) <= 1

    def test_deterministic_given_seed(self):
        spec = ptpp.SynthSpec(duration_s=20.0, noise_snr_db=10.0, seed=21)
        rec_a, truth_a = ptpp.synth_ecg(spec)
        rec_b, truth_b = ptpp.synth_ecg(spec)
        np.testing.assert_array_equal(rec_a.channels[0].samples,
                                      rec_b.channels[0].samples)
        np.testing.assert_array_equal(truth_a.beat_samples,
                                      truth_b.beat_samples)

    def test_seed_changes_noise(self):
        a, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=10.0,
                                             noise_snr_db=10.0, seed=0))
        b, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=10.0,
                                             noise_snr_db=10.0, seed=1))
        assert not np.array_equal(a.channels[0].samples,
                                  b.channels[0].samples)

    def test_annotations_on_local_maxima(self):
        record, truth = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=30.0))
        x = record.channels[0].samples
        for b in truth.beat_samples:
            assert abs(int(np.argmax(x[b - 5:b + 6])) - 5) <= 1

    def test_zero_outside_pulse_supports(self):
        spec = ptpp.SynthSpec(duration_s=20.0, t_wave=False)
        record, truth = ptpp.synth_ecg(spec)
        x = record.channels[0].samples.copy()
        half = int(np.ceil(3.0 * (spec.qrs_width_ms / 2000.0) * spec.fs)) + 1
        for b in truth.beat_samples:
            x[max(0, b - half):b + half + 1] = 0.0
        assert np.all(x == 0.0)

    def test_annotation_invariants(self):
        record, truth = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=15.0))
        assert truth.beat_samples.dtype == np.int64
        assert np.all(np.diff(truth.beat_samples) > 0)
        assert truth.beat_samples[0] >= 0
        assert truth.beat_samples[-1] < record.duration_samples
        assert truth.source_format == "synthetic"

    def test_heart_rate_schedule(self):
        spec = ptpp.SynthSpec(duration_s=60.0,
                              heart_rate_bpm=[[0.0, 60.0], [30.0, 120.0]])
        record, truth = ptpp.synth_ecg(spec)
        t = truth.beat_samples / spec.fs
        early = np.diff(t[t < 29.0])
        late = np.diff(t[t > 31.0])
        np.testing.assert_allclose(early, 1.0, rtol=1e-6)
        np.testing.assert_allclose(late, 0.5, rtol=1e-6)

    def test_heart_rate_before_the_first_start(self):
        # Beats before the schedule's first start take its first rate.
        spec = ptpp.SynthSpec(duration_s=20.0,
                              heart_rate_bpm=[[5.0, 60.0], [10.0, 120.0]])
        t = ptpp.synth_ecg(spec)[1].beat_samples / spec.fs
        np.testing.assert_allclose(np.diff(t[t < 9.0]), 1.0, rtol=1e-6)
        np.testing.assert_allclose(np.diff(t[t > 11.0]), 0.5, rtol=1e-6)

    def test_unvalidated_spec_refused(self):
        with pytest.raises(ptpp.ConfigError,
                           match="fs and duration_s must be positive"):
            ptpp.synth_ecg(ptpp.SynthSpec(fs=-1.0, duration_s=-60.0))

    def test_amplitude_cycle_every_fourth_low(self):
        spec = ptpp.SynthSpec(duration_s=30.0, t_wave=False,
                              qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.45])
        record, truth = ptpp.synth_ecg(spec)
        peaks = record.channels[0].samples[truth.beat_samples]
        np.testing.assert_allclose(peaks[3::4], 0.45, rtol=1e-9)
        np.testing.assert_allclose(peaks[0::4], 1.0, rtol=1e-9)

    def test_amplitude_time_schedule(self):
        spec = ptpp.SynthSpec(duration_s=60.0, t_wave=False,
                              qrs_amplitude_mv=[[0.0, 1.0], [30.0, 0.3]])
        record, truth = ptpp.synth_ecg(spec)
        peaks = record.channels[0].samples[truth.beat_samples]
        t = truth.beat_samples / spec.fs
        np.testing.assert_allclose(peaks[t < 29.0], 1.0, rtol=1e-9)
        np.testing.assert_allclose(peaks[t > 31.0], 0.3, rtol=1e-9)

    def test_spike_scales_nearest_beat(self):
        spec = ptpp.SynthSpec(duration_s=30.0, t_wave=False,
                              spike=(10.0, 5.0))
        record, truth = ptpp.synth_ecg(spec)
        peaks = record.channels[0].samples[truth.beat_samples]
        t = truth.beat_samples / spec.fs
        spiked = int(np.argmin(np.abs(t - 10.0)))
        assert peaks[spiked] == pytest.approx(5.0, rel=1e-9)
        rest = np.delete(peaks, spiked)
        np.testing.assert_allclose(rest, 1.0, rtol=1e-9)

    def test_noise_snr_power(self):
        base = dict(duration_s=60.0, seed=33)
        clean, _ = ptpp.synth_ecg(ptpp.SynthSpec(**base))
        noisy, _ = ptpp.synth_ecg(ptpp.SynthSpec(noise_snr_db=10.0, **base))
        noise = noisy.channels[0].samples - clean.channels[0].samples
        signal_power = float(np.mean(clean.channels[0].samples ** 2))
        noise_power = float(np.mean(noise ** 2))
        assert noise_power == pytest.approx(signal_power / 10.0, rel=0.1)

    def test_rr_jitter_deterministic_and_bounded(self):
        spec = ptpp.SynthSpec(duration_s=30.0, rr_jitter_frac=0.1, seed=4)
        _, a = ptpp.synth_ecg(spec)
        _, b = ptpp.synth_ecg(spec)
        np.testing.assert_array_equal(a.beat_samples, b.beat_samples)
        rr = np.diff(a.beat_samples) / spec.fs
        assert rr.min() > 0.5 * (60.0 / 80.0)
        assert not np.allclose(rr, rr[0])

    def test_custom_sampling_rate(self):
        spec = ptpp.SynthSpec(fs=250.0, duration_s=30.0)
        record, truth = ptpp.synth_ecg(spec)
        assert record.sampling_rate_hz == 250.0
        np.testing.assert_allclose(np.diff(truth.beat_samples),
                                   250.0 * 60.0 / 80.0, atol=1.0)


class TestTimeDetector:
    def test_positive_and_reasonable(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=10.0))
        medians = ptpp.time_detectors(record.channels[0].samples,
                                      record.sampling_rate_hz)
        assert list(medians) == list(ptpp.DETECTORS)
        assert all(0.0 < t < 5.0 for t in medians.values())

    def test_unknown_detector(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=10.0))
        with pytest.raises(ptpp.ConfigError):
            ptpp.run_detector("nope", record.channels[0].samples,
                              record.sampling_rate_hz)

    def test_decision_phases_within_2x(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=60.0))
        medians = ptpp.time_detectors(record.channels[0].samples,
                                      record.sampling_rate_hz)
        ratio = medians["ptpp"] / medians["pt"]
        assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_no_rounds_is_a_config_error(self, repeats):
        # Refused before any detector runs: nothing here would time.
        with mock.patch.object(ptpp.evaluation, "run_detector") as run, \
                pytest.raises(ptpp.ConfigError, match="repeats must be >= 1"):
            ptpp.time_detectors(np.zeros(1000), 360.0, repeats=repeats)
        run.assert_not_called()

    def test_reads_cpu_time_not_wall_time(self):
        _, elapsed = ptpp.evaluation.timed_call(time.sleep, 0.2)
        assert elapsed < 0.1
