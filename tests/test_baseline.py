"""Classic-detector tests.

Covers the intentional differences from the main detector: single-channel
amplitude test, threshold2 = 0.5*threshold1, the 0.5 T-wave slope ratio, the
RR-mean-only search-back with threshold2 as its bar, the 92-116 % threshold
halving, and the absence of any low-threshold recovery branch.
"""

import math

import numpy as np
import pytest

import ptpp
from ptpp.baseline import VIA_SEARCHBACK_T2
from ptpp.detector import (REJECT_BELOW, REJECT_TWAVE, VIA_SPIKE_RECOVERY,
                           VIA_THRESHOLD1)

from test_detector import add_triangle, make_stages

FS = 100.0  # 200 ms refractory -> 20 samples


class TestPtConfig:
    def test_documented_defaults(self):
        cfg = ptpp.PtConfig()
        assert cfg.refractory_ms == 200.0
        assert cfg.twave_window_ms == 360.0
        assert cfg.twave_slope_ratio == 0.5
        assert cfg.searchback_rr_factor == 1.66
        assert cfg.rr_low_frac == 0.92
        assert cfg.rr_high_frac == 1.16

    @pytest.mark.parametrize("bad", [
        dict(refractory_ms=0.0),
        dict(rr_low_frac=1.2, rr_high_frac=1.1),
        dict(rr_high_frac=2.5),
        dict(refractory_ms=math.inf),
        dict(rr_low_frac=1.1, rr_high_frac=1.1),
        dict(rr_high_frac=2.0),
        dict(twave_slope_ratio=1.0),
        dict(twave_slope_ratio=5.0),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ptpp.ConfigError):
            ptpp.PtConfig(**bad).validate()

    def test_detect_pt_validates(self):
        with pytest.raises(ptpp.ConfigError):
            ptpp.detect_pt(make_stages(np.zeros(300)), FS,
                           ptpp.PtConfig(refractory_ms=0.0))


class TestClassicLoop:
    def test_clean_train_all_threshold1(self):
        x = np.zeros(1000)
        apices = list(range(25, 1000, 100))
        for a in apices:
            add_triangle(x, a, 1.0)
        result = ptpp.detect_pt(make_stages(x), FS)
        np.testing.assert_array_equal(result.r_peaks, apices)
        assert result.provenance == [VIA_THRESHOLD1] * len(apices)
        assert result.rejected == []

    def test_half_ratio_coupling_throughout(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=20.0,
                                                  noise_snr_db=10.0, seed=8))
        stages = ptpp.run_pipeline(record.channels[0].samples, 360.0,
                                   ptpp.default_pipeline_config("pt"))
        trace = []
        ptpp.detect_pt(stages, 360.0, trace=trace)
        assert trace
        for _, s in trace:
            assert s.t2_ratio == 0.5
            assert s.threshold2 == pytest.approx(0.5 * s.threshold1,
                                                 rel=1e-12, abs=1e-300)

    def test_broad_twave_rejected(self):
        integ = np.zeros(800)
        apices = [25, 225, 425, 625]
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 655, 0.5, half_width=40)  # flat: ratio ~0.1
        result = ptpp.detect_pt(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks, apices)
        assert (655, REJECT_TWAVE) in result.rejected

    def test_slope_ratio_gap_between_detectors(self):
        # a sharp hump at 0.55x height has exactly 0.55x the previous slope:
        # above the classic 0.5 cutoff, below the stricter 0.6 one
        integ = np.zeros(800)
        apices = [25, 225, 425, 625]
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 655, 0.55)
        stages = make_stages(integ)

        classic = ptpp.detect_pt(stages, FS)
        assert 655 in classic.r_peaks  # accepted: a false positive

        modern = ptpp.detect(stages, FS)
        assert 655 not in modern.r_peaks
        assert (655, REJECT_TWAVE) in modern.rejected

    def test_slow_rhythm_has_no_relative_twave_window(self):
        # 4 s RRs: a flat hump 380 ms after a beat is past the absolute
        # 360 ms window, and the classic loop has no window relative to
        # rr_mean, so the hump is a beat (a false positive)
        integ = np.zeros(3400)
        apices = list(range(25, 3300, 400))  # 9 beats define rr_mean
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, apices[-1] + 38, 0.5, half_width=40)
        result = ptpp.detect_pt(make_stages(integ), FS)
        np.testing.assert_array_equal(result.r_peaks,
                                      apices + [apices[-1] + 38])

    def test_searchback_uses_threshold2_and_rr_mean(self):
        # nine beats establish rr_mean = 100 samples; a 0.15 hump below
        # threshold1 is skipped, then recovered when RR exceeds 1.66*rr_mean
        integ = np.zeros(1100)
        apices = list(range(25, 900, 100))  # 9 beats
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 885, 0.15)
        add_triangle(integ, 1000, 1.0)
        trace = []
        result = ptpp.detect_pt(make_stages(integ), FS, trace=trace)
        np.testing.assert_array_equal(result.r_peaks, apices + [885, 1000])
        assert result.provenance == ([VIA_THRESHOLD1] * 9
                                     + [VIA_SEARCHBACK_T2, VIA_THRESHOLD1])
        assert (885, REJECT_BELOW) in result.rejected

        # the inserted beat's RR (60) and the closing beat's RR (115) both
        # fall outside 92-116 % of the running mean, so the state seen after
        # the last candidate carries a halved threshold1
        _, final = trace[-1]
        coupled = final.npk + 0.25 * (final.spk - final.npk)
        assert final.threshold1 == pytest.approx(0.5 * coupled, rel=1e-12)

    @pytest.mark.parametrize("factor,found", [(1.75, []), (1.74, [885])])
    def test_searchback_needs_rr_beyond_the_factor(self, factor, found):
        # rr_mean is exactly 100 and the closing RR 175: a factor of 1.75
        # leaves the 0.15 hump at 885 a rejected candidate, 1.74 finds it
        integ = np.zeros(1100)
        apices = list(range(25, 900, 100))  # 9 beats
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 885, 0.15)
        add_triangle(integ, 1000, 1.0)
        result = ptpp.detect_pt(make_stages(integ), FS,
                                ptpp.PtConfig(searchback_rr_factor=factor))
        np.testing.assert_array_equal(result.r_peaks,
                                      apices + found + [1000])

    def test_no_searchback_before_rr_history(self):
        # two beats only: rr_mean undefined, so a 4 s silence is never
        # searched and the small humps stay invisible to the classic loop
        integ = np.zeros(1000)
        for a in (25, 125):
            add_triangle(integ, a, 1.0)
        for a in range(225, 1000, 100):
            add_triangle(integ, a, 0.1)
        stages = make_stages(integ)

        classic = ptpp.detect_pt(stages, FS)
        np.testing.assert_array_equal(classic.r_peaks, [25, 125])

        # identical stages, modern loop: the absolute 1 s / 1.4 s gates fire
        # without any RR history and detection resumes
        modern = ptpp.detect(stages, FS)
        assert len(modern.r_peaks) >= 6
        assert VIA_SPIKE_RECOVERY in modern.provenance

    def test_in_band_rr_never_halves(self):
        integ = np.zeros(1100)
        apices = list(range(25, 1100, 100))
        for a in apices:
            add_triangle(integ, a, 1.0)
        trace = []
        ptpp.detect_pt(make_stages(integ), FS, trace=trace)
        for _, s in trace:
            coupled = s.npk + 0.25 * (s.spk - s.npk)
            assert s.threshold1 == pytest.approx(coupled, rel=1e-12)

    def test_long_rr_halves_thresholds(self):
        integ = np.zeros(1100)
        apices = list(range(25, 900, 100))  # rr_mean = 100 after these
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, 975, 1.0)  # RR 150 > 116 % of the mean
        trace = []
        result = ptpp.detect_pt(make_stages(integ), FS, trace=trace)
        assert 975 in result.r_peaks
        _, final = trace[-1]
        coupled = final.npk + 0.25 * (final.spk - final.npk)
        assert final.threshold1 == pytest.approx(0.5 * coupled, rel=1e-12)

    @pytest.mark.parametrize("rr,halved", [
        (74, True), (75, False), (125, False), (126, True)])
    def test_band_edges_are_inside(self, rr, halved):
        # rr_mean is exactly 100 and the band 75-125 % is exact in binary,
        # so an RR on either edge is in band and leaves threshold1 alone.
        integ = np.zeros(1100)
        apices = list(range(25, 900, 100))
        for a in apices:
            add_triangle(integ, a, 1.0)
        add_triangle(integ, apices[-1] + rr, 1.0)
        trace = []
        cfg = ptpp.PtConfig(rr_low_frac=0.75, rr_high_frac=1.25)
        result = ptpp.detect_pt(make_stages(integ), FS, cfg, trace=trace)
        assert result.r_peaks[-1] == apices[-1] + rr
        _, final = trace[-1]
        coupled = final.npk + 0.25 * (final.spk - final.npk)
        assert final.threshold1 == pytest.approx(
            0.5 * coupled if halved else coupled, rel=1e-12)

    def test_refractory_spacing_invariant(self):
        for seed in range(3):
            record, _ = ptpp.synth_ecg(ptpp.SynthSpec(
                duration_s=30.0, noise_snr_db=6.0, seed=seed))
            stages = ptpp.run_pipeline(record.channels[0].samples, 360.0,
                                       ptpp.default_pipeline_config("pt"))
            result = ptpp.detect_pt(stages, 360.0)
            assert np.all(np.diff(result.r_peaks)
                          >= ptpp.ms_to_samples(200, 360.0))

    def test_shared_stages_not_mutated(self):
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=20.0,
                                                  noise_snr_db=10.0, seed=9))
        stages = ptpp.run_pipeline(record.channels[0].samples, 360.0)
        integ_copy = stages.integrated.copy()
        filt_copy = stages.filtered.copy()
        first = ptpp.detect_pt(stages, 360.0)
        ptpp.detect(stages, 360.0)
        second = ptpp.detect_pt(stages, 360.0)
        np.testing.assert_array_equal(stages.integrated, integ_copy)
        np.testing.assert_array_equal(stages.filtered, filt_copy)
        np.testing.assert_array_equal(first.r_peaks, second.r_peaks)

    def test_clean_synthetic_perfect_through_own_pipeline(self):
        record, truth = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=30.0))
        run = ptpp.run_detector("pt", record.channels[0].samples, 360.0)
        report = ptpp.match_beats(run.r_peaks, truth, 360.0)
        assert report.fp == 0 and report.fn == 0
        assert report.tp == len(truth.beat_samples)


@pytest.mark.parametrize("seed", range(15))
def test_scale_invariance(seed):
    # Acceptance 6 checks this for the main detector; every threshold of the
    # classic one is also a linear function of the signal amplitude.
    g = np.random.default_rng(7000 + seed)
    spec = ptpp.SynthSpec(
        duration_s=float(g.uniform(8.0, 15.0)),
        heart_rate_bpm=float(g.uniform(50.0, 150.0)),
        rr_jitter_frac=float(g.uniform(0.0, 0.2)),
        qrs_amplitude_mv=float(g.uniform(0.5, 2.0)),
        noise_snr_db=float(g.uniform(5.0, 30.0)) if g.random() < 0.5 else None,
        seed=int(g.integers(0, 2 ** 31)),
    )
    x = ptpp.synth_ecg(spec)[0].channels[0].samples
    base = ptpp.run_detector("pt", x, 360.0)
    for alpha in (0.1, 10.0):
        run = ptpp.run_detector("pt", alpha * x, 360.0)
        np.testing.assert_array_equal(run.detection.r_peaks,
                                      base.detection.r_peaks)
        assert run.detection.provenance == base.detection.provenance
        np.testing.assert_array_equal(run.r_peaks, base.r_peaks)


def test_randomized_refractory_and_coupling():
    # Acceptance 6's refractory and threshold-coupling properties for the
    # classic detector, on the same 100 seeded specs (same draws, same
    # order) as test_criterion_6_randomized_properties.
    g = np.random.default_rng(20260824)
    fs = 360.0
    refractory = ptpp.ms_to_samples(200.0, fs)
    pipeline_cfg = ptpp.default_pipeline_config("pt")
    entries = 0
    for _ in range(100):
        spec = ptpp.SynthSpec(
            duration_s=float(g.uniform(8.0, 15.0)),
            heart_rate_bpm=float(g.uniform(50.0, 150.0)),
            rr_jitter_frac=float(g.uniform(0.0, 0.2)),
            qrs_amplitude_mv=float(g.uniform(0.5, 2.0)),
            noise_snr_db=(float(g.uniform(5.0, 30.0))
                          if g.random() < 0.5 else None),
            seed=int(g.integers(0, 2 ** 31)),
        )
        x = ptpp.synth_ecg(spec)[0].channels[0].samples
        trace = []
        det = ptpp.detect_pt(ptpp.run_pipeline(x, fs, pipeline_cfg), fs,
                             trace=trace)
        assert np.all(np.diff(det.r_peaks) >= refractory), spec
        for _, *states in trace:
            for st in states:
                entries += 1
                assert st.threshold2 == pytest.approx(
                    0.5 * st.threshold1, rel=1e-12, abs=0.0), spec
    assert entries > 0
