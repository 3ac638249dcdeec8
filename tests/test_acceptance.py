"""Release sign-off checks.

One test per criterion on the project's acceptance checklist (see the
``CRITERIA`` table in conftest). Every test runs through the ``acceptance``
fixture so the terminal summary ends with a visible PASS/FAIL/SKIP line per
criterion, and time budgets are asserted where the checklist sets one: wall
time, except the throughput budget, which is CPU time.
"""

import time

import numpy as np
import pytest

import ptpp
from helpers import (CLEAN_SPEC, DROPOUT_SPEC, LOW_AMP_SPEC, SPIKE_SPEC,
                     TALL_T_SPEC, encode212, f_score, make_header,
                     mitbih_record_paths, score, sign_extend_12)
from test_io import GOLDEN_100_HEA

REL = 1e-9


def test_criterion_1_equation_suite(acceptance):
    with acceptance(1) as note:
        started = time.perf_counter()

        # five-point derivative: impulse response and ramp slope
        y = ptpp.derivative(np.eye(9)[4], fs=8.0)
        np.testing.assert_allclose(y[2:7], [1.0, 2.0, 0.0, -2.0, -1.0],
                                   rtol=REL)
        ramp = ptpp.derivative(np.arange(40) / 360.0, fs=360.0)
        np.testing.assert_allclose(ramp[2:-2], 1.0, rtol=REL)
        np.testing.assert_allclose(ramp[:2], [0.5, 0.875], rtol=REL)

        # squaring and the moving-window integral
        np.testing.assert_allclose(ptpp.square(np.array([-3.0, 0.5])),
                                   [9.0, 0.25], rtol=REL)
        imp = np.zeros(20)
        imp[10] = 1.0
        np.testing.assert_allclose(ptpp.mwi(imp, window_samples=4)[10:14],
                                   0.25, rtol=REL)

        # flat-top smoother coefficients, exactly as documented
        from ptpp.pipeline import (FLATTOP_A0, FLATTOP_A1, FLATTOP_A2,
                                   FLATTOP_A3, FLATTOP_A4)
        assert (FLATTOP_A0, FLATTOP_A1, FLATTOP_A2, FLATTOP_A3, FLATTOP_A4) \
            == (0.2155789, 0.4166316, 0.27726316, 0.08357895, 0.00694737)
        alternating = (FLATTOP_A0 - FLATTOP_A1 + FLATTOP_A2
                       - FLATTOP_A3 + FLATTOP_A4)
        assert alternating == pytest.approx(-0.00042112, rel=REL)
        assert abs(float(np.sum(ptpp.flattop_kernel(21))) - 1.0) < 1e-12

        # threshold bootstrap over the first two seconds
        boot = ptpp.init_thresholds(np.full(200, 0.9), fs=100.0)
        assert (boot.threshold1, boot.threshold2) \
            == pytest.approx((0.3, 0.45), rel=REL)
        assert (boot.spk, boot.npk) == pytest.approx((0.3, 0.45), rel=REL)
        spiky = np.zeros(10)
        spiky[-1] = 1.2
        peaked = ptpp.init_thresholds(spiky, fs=5.0)
        assert (peaked.threshold1, peaked.threshold2) \
            == pytest.approx((0.4, 0.06), rel=REL)

        # running threshold updates, both the signal and the noise branch
        state = ptpp.ThresholdState(spk=2.0, npk=1.0, threshold1=0.0,
                                    threshold2=0.0)
        after = ptpp.update_rule1(state, peak=3.0, is_signal=True)
        assert after.spk == pytest.approx(2.125, rel=REL)
        assert after.threshold1 == pytest.approx(1.28125, rel=REL)
        assert after.threshold2 == pytest.approx(0.5125, rel=REL)
        noise = ptpp.update_rule1(state, peak=0.1, is_signal=False)
        assert noise.npk == pytest.approx(0.8875, rel=REL)

        # the long-gap variant pulls both estimates toward the found peak
        zeroed = ptpp.ThresholdState(spk=1.0, npk=0.1, threshold1=0.0,
                                     threshold2=0.0)
        pulled = ptpp.update_rule2(zeroed, peak=0.4)
        assert pulled.spk == pytest.approx(0.55, rel=REL)
        assert pulled.npk == pytest.approx(0.325, rel=REL)

        # the search-back bar and the trailing mean slope
        at_t2 = ptpp.ThresholdState(spk=0.0, npk=0.0, threshold1=1.0,
                                    threshold2=0.4)
        assert ptpp.threshold3(at_t2, 0.2) == pytest.approx(0.3, rel=REL)
        assert ptpp.threshold3(
            at_t2, float(np.mean([0.5, 0.6, 0.7, 0.4, 0.5, 0.3]))) \
            == pytest.approx(0.45, rel=REL)
        assert ptpp.mean_slope(0.05 * np.arange(50), idx=40, fs=100.0) \
            == pytest.approx(0.05, rel=REL)

        # millisecond-to-sample conversions used throughout
        assert [ptpp.ms_to_samples(ms, 360.0)
                for ms in (231.0, 360.0, 150.0, 60.0, 100.0)] \
            == [83, 130, 54, 22, 36]

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        note(f"all hand-worked values matched in {elapsed:.3f} s")


def test_criterion_2_clean_signal(acceptance):
    with acceptance(2) as note:
        started = time.perf_counter()
        record, truth = ptpp.synth_ecg(CLEAN_SPEC)
        _, report = score("ptpp", record, truth, tolerance_ms=100.0)
        m = ptpp.metrics([report])
        assert m.sensitivity == 1.0
        assert m.ppv == 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0
        note(f"tp={report.tp} fp={report.fp} fn={report.fn} "
             f"in {elapsed:.3f} s")


def test_criterion_3_noise_robustness(acceptance):
    with acceptance(3) as note:
        started = time.perf_counter()
        scores = []
        for seed in range(5):
            spec = ptpp.SynthSpec(duration_s=60.0, noise_snr_db=10.0,
                                  seed=seed)
            record, truth = ptpp.synth_ecg(spec)
            _, report = score("ptpp", record, truth)
            scores.append(f_score(report))
        assert min(scores) >= 0.99
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        note("F per seed: " + ", ".join(f"{s:.4f}" for s in scores)
             + f"; {elapsed:.2f} s")


def _f_or_zero(report):
    value = ptpp.metrics([report]).f_score
    return 0.0 if value is None else value


def test_criterion_4_limitation_scenarios(acceptance):
    scenarios = [("low-amp", LOW_AMP_SPEC), ("tall-T", TALL_T_SPEC),
                 ("dropout", DROPOUT_SPEC), ("spike", SPIKE_SPEC)]
    with acceptance(4) as note:
        started = time.perf_counter()
        parts = []
        for name, spec in scenarios:
            record, truth = ptpp.synth_ecg(spec)
            _, new_report = score("ptpp", record, truth)
            _, old_report = score("pt", record, truth)
            f_new, f_old = _f_or_zero(new_report), _f_or_zero(old_report)
            assert f_new > f_old, name
            parts.append(f"{name} {f_new:.3f}>{f_old:.3f}")
            if name == "spike":
                spike_sample = int(spec.spike[0] * spec.fs)
                after = truth.beat_samples[truth.beat_samples > spike_sample]
                matched = {pair[0] for pair in new_report.matched_pairs}
                se_after = sum(int(b) in matched for b in after) / len(after)
                assert se_after >= 0.95
                parts.append(f"spike Se-after {se_after:.4f}")
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        note("; ".join(parts) + f"; {elapsed:.2f} s")


def test_criterion_5_mitbih_record_100(acceptance):
    with acceptance(5) as note:
        started = time.perf_counter()
        hea = mitbih_record_paths("100")
        if hea is None:
            pytest.skip("MIT-BIH record 100 not found: place 100.hea, "
                        "100.dat and 100.atr under tests/data or "
                        "$PTPP_DATA_ROOT to enable this check")
        record = ptpp.load_wfdb_record(hea)
        labels = [lab.lower() for lab in record.channel_labels()]
        channel = labels.index("mlii")
        truth = ptpp.load_annotations(hea.with_suffix(".atr"))
        run = ptpp.run_detector("ptpp", record.channels[channel].samples,
                                record.sampling_rate_hz)
        report = ptpp.match_beats(run.r_peaks, truth,
                                  record.sampling_rate_hz,
                                  tolerance_ms=100.0)
        f = f_score(report)
        elapsed = time.perf_counter() - started
        assert f >= 0.990
        assert elapsed < 10.0
        note(f"F={f:.4f} tp={report.tp} fp={report.fp} fn={report.fn} "
             f"in {elapsed:.2f} s incl. parsing")


def test_criterion_6_randomized_properties(acceptance):
    with acceptance(6) as note:
        g = np.random.default_rng(20260824)
        fs = 360.0
        min_sep = ptpp.ms_to_samples(231.0, fs)
        refractory_bad = coupling_bad = 0
        trace_entries = 0
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
            record, _ = ptpp.synth_ecg(spec)
            x = record.channels[0].samples

            trace = []
            det = ptpp.detect(ptpp.run_pipeline(x, fs), fs, trace=trace)

            refractory_bad += int(np.sum(np.diff(det.r_peaks) < min_sep))

            for _, state_i, state_f in trace:
                trace_entries += 1
                for st in (state_i, state_f):
                    expected_t1 = st.npk + 0.25 * (st.spk - st.npk)
                    if abs(st.threshold2 - 0.4 * st.threshold1) > \
                            1e-12 * max(1.0, abs(st.threshold1)):
                        coupling_bad += 1
                    if abs(st.threshold1 - expected_t1) > \
                            1e-12 * max(1.0, abs(expected_t1)):
                        coupling_bad += 1

            for alpha in (0.1, 1.0, 10.0):
                run = ptpp.run_detector("ptpp", alpha * x, fs)
                assert np.array_equal(run.detection.r_peaks, det.r_peaks), \
                    f"alpha={alpha}"
                assert run.detection.provenance == det.provenance

        assert refractory_bad == 0
        assert coupling_bad == 0
        note(f"100 records: 0 refractory violations, 0 coupling violations "
             f"over {trace_entries} threshold updates, detections invariant "
             f"under x0.1/x1/x10 scaling")


def test_criterion_7_parser_goldens(acceptance):
    with acceptance(7) as note:
        # every 12-bit code against an independent two's-complement oracle
        codes = list(range(4096))
        header = ptpp.parse_wfdb_header(make_header(
            "r", 360, len(codes), ["r.dat 212 1 12 0 0 0 0 ch0"]))
        decoded = ptpp.decode_format212(encode212(codes), header)
        np.testing.assert_array_equal(
            decoded.channels[0].samples,
            np.array([sign_extend_12(c) for c in codes], dtype=float))

        # the classic two-lead header parses to its published values
        info = ptpp.parse_wfdb_header(GOLDEN_100_HEA)
        assert info.record_name == "100"
        assert info.n_channels == 2
        assert info.sampling_rate_hz == 360.0
        assert info.n_samples == 650000
        assert [ch.label for ch in info.channels] == ["MLII", "V5"]
        assert all(ch.format_code == 212 for ch in info.channels)
        assert all(ch.gain == 200.0 for ch in info.channels)
        assert all(ch.baseline == 1024 for ch in info.channels)

        # decode -> re-encode round trip is byte-identical
        random_codes = np.random.default_rng(7).integers(0, 4096, size=2000)
        blob = encode212(random_codes.tolist())
        rt_header = ptpp.parse_wfdb_header(make_header(
            "r", 360, len(random_codes), ["r.dat 212 1 12 0 0 0 0 ch0"]))
        rt = ptpp.decode_format212(blob, rt_header)
        again = encode212(int(v) for v in rt.channels[0].samples)
        assert again == blob

        note("4096/4096 codes, golden header fields, 2000-sample "
             "round trip byte-identical")


def test_criterion_8_throughput(acceptance):
    with acceptance(8) as note:
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=1800.0))
        samples, fs = record.channels[0].samples, record.sampling_rate_hz
        medians = ptpp.time_detectors(samples, fs, repeats=5)
        assert medians["ptpp"] < 18.0
        ratio = medians["ptpp"] / medians["pt"]
        note(f"30-min record: median {medians['ptpp']:.3f} CPU s over 5 "
             f"runs (budget 18 s); ptpp/pt ratio {ratio:.2f} "
             f"(informational)")
