"""End-to-end command-line tests; every command runs in-process via main()."""

import argparse
import csv
import json
import warnings
from dataclasses import fields
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import ptpp
from ptpp.cli import (DETECTIONS_HEADER, METRICS_HEADER, POOLED_ROW_ID,
                      STAGES_HEADER, build_parser, main, parse_config_text,
                      resolve_channel)
from ptpp.io import Channel, Record

from helpers import encode212, make_header


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def write_spec(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A 30 s noiseless record rendered through the synth command."""
    root = tmp_path_factory.mktemp("clean")
    spec = write_spec(root / "spec.json", duration_s=30.0, seed=5)
    assert main(["synth", spec, "-o", str(root / "rec")]) == 0
    truth = ptpp.load_annotations(root / "rec.ann")
    return {"csv": str(root / "rec.csv"), "ann": str(root / "rec.ann"),
            "beats": len(truth.beat_samples)}


@pytest.fixture(scope="module")
def spike(tmp_path_factory):
    """A record with one early high-amplitude beat and mild noise."""
    root = tmp_path_factory.mktemp("spike")
    spec = write_spec(root / "spec.json", duration_s=120.0, spike=[1.9, 10.0],
                      noise_snr_db=20.0, seed=14)
    assert main(["synth", spec, "-o", str(root / "rec")]) == 0
    return {"csv": str(root / "rec.csv"), "ann": str(root / "rec.ann")}


class TestConfigText:
    def test_parse_basic(self):
        pairs = parse_config_text(
            "# comment\n\ndetector.rr_history_beats = 6\n"
            "eval.dataset = mitdb\n")
        assert pairs == {"detector.rr_history_beats": "6",
                         "eval.dataset": "mitdb"}

    def test_parse_missing_equals_cites_line(self):
        with pytest.raises(ptpp.ConfigError, match="main.cfg:2"):
            parse_config_text("a.b = 1\nnonsense\n", source="main.cfg")

    def test_parse_strips_and_keeps_inner_spaces(self):
        pairs = parse_config_text("  pipeline.band_high_hz=18.0\n"
                                  "eval.dataset =  two words  \n"
                                  "a.b = 1\na.b = 2\n")
        assert pairs == {"pipeline.band_high_hz": "18.0",
                         "eval.dataset": "two words", "a.b": "2"}


# Every action of every subcommand: option strings, dest, default, nargs,
# choices and type, in declaration order.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, 0, None, None)
_COMMON = [
    (("--channel",), "channel", None, None, None, None),
    (("--config",), "config_file", None, None, None, None),
    (("--set",), "overrides", [], None, None, None),
    (("--fs",), "fs", None, None, None, float),
    (("--output", "-o"), "output", None, None, None, None),
]
_DETECTOR = (("--detector",), "detector", "ptpp", None, ("ptpp", "pt"), None)
_SCORING = [
    (("--annotations",), "annotations", [], "+", None, None),
    (("--tolerance-ms",), "tolerance_ms", None, None, None, float),
    (("--dataset",), "dataset", None, None, None, None),
]
_ONE_RECORD = ((), "records", None, 1, None, None)
_MANY_RECORDS = ((), "records", None, "+", None, None)
PARSER_SURFACE = {
    "detect": [_HELP, _ONE_RECORD, *_COMMON, _DETECTOR],
    "eval": [_HELP, _MANY_RECORDS, *_COMMON, _DETECTOR, *_SCORING],
    "compare": [_HELP, _MANY_RECORDS, *_COMMON, *_SCORING,
                (("--disagreements",), "disagreements", None, None, None,
                 None)],
    "stages": [_HELP, _ONE_RECORD, *_COMMON, _DETECTOR],
    "bench": [_HELP, _ONE_RECORD, *_COMMON,
              (("--repeats",), "repeats", 5, None, None, int)],
    "synth": [_HELP, ((), "spec_file", None, None, None, None),
              (("--output", "-o"), "output", None, None, None, None)],
}


class TestParserSurface:
    def test_every_subcommand_action_pinned(self):
        parser = build_parser()
        [commands] = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        assert list(commands.choices) == list(PARSER_SURFACE)
        for name, sub in commands.choices.items():
            surface = [(tuple(a.option_strings), a.dest, a.default, a.nargs,
                        a.choices if a.choices is None else tuple(a.choices),
                        a.type) for a in sub._actions]
            assert surface == PARSER_SURFACE[name], name


def record_with(labels):
    return Record(sampling_rate_hz=360.0,
                  channels=[Channel(lab, np.zeros(8), 200.0, 0)
                            for lab in labels],
                  duration_samples=8)


class TestResolveChannel:
    def test_prefers_mlii(self):
        assert resolve_channel(record_with(["V5", "MLII"]), None) == 1

    def test_falls_back_to_ii(self):
        assert resolve_channel(record_with(["V1", "II"]), None) == 1

    def test_default_zero_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="ptpp"):
            assert resolve_channel(record_with(["chA", "chB"]), None) == 0
        assert any("channel 0" in r.message for r in caplog.records)

    def test_single_channel_silent(self, caplog):
        with caplog.at_level("WARNING", logger="ptpp"):
            assert resolve_channel(record_with(["ecg"]), None) == 0
        assert caplog.records == []

    def test_numeric_selector(self):
        assert resolve_channel(record_with(["a", "b"]), "1") == 1

    def test_numeric_out_of_range(self):
        with pytest.raises(ptpp.ConfigError):
            resolve_channel(record_with(["a", "b"]), "2")

    def test_label_selector_case_insensitive(self):
        assert resolve_channel(record_with(["V5", "MLII"]), "mlii") == 1

    def test_unknown_label_lists_choices(self):
        with pytest.raises(ptpp.ConfigError, match="V5"):
            resolve_channel(record_with(["V5"]), "MLII")


class TestSynthCommand:
    def test_writes_pair_and_reports_count(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "s.json", duration_s=10.0)
        assert main(["synth", spec, "-o", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.ann").exists()
        truth = ptpp.load_annotations(tmp_path / "out.ann")
        assert f"{len(truth.beat_samples)} beats" in capsys.readouterr().out

    def test_dotted_stem_keeps_its_tail(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", duration_s=2.0)
        for stem in ("seed.1", "seed.2"):
            assert main(["synth", spec, "-o", str(tmp_path / stem)]) == 0
        written = {p.name for p in tmp_path.iterdir()} - {"s.json"}
        assert written == {"seed.1.csv", "seed.1.ann", "seed.2.csv",
                           "seed.2.ann"}

    @pytest.mark.parametrize("stem,spec_name,names", [
        ("rec", "s.json", ("rec.csv", "rec.ann")),
        ("rec.csv", "s.json", ("rec.csv", "rec.ann")),
        ("rec.ann", "s.json", ("rec.csv", "rec.ann")),
        (None, "spec.v2.json", ("spec.v2.csv", "spec.v2.ann")),
    ])
    def test_output_names(self, tmp_path, monkeypatch, stem, spec_name,
                          names):
        monkeypatch.chdir(tmp_path)  # without -o, synth writes here
        spec = write_spec(tmp_path / spec_name, duration_s=2.0)
        argv = ["synth", spec] + (["-o", str(tmp_path / stem)] if stem else [])
        assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} == {spec_name, *names}

    def test_takes_no_settings(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", duration_s=10.0)
        with pytest.raises(SystemExit) as exc:
            main(["synth", spec, "--set", "a.b=1"])
        assert exc.value.code == 2

    def test_invalid_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", str(bad), "-o", str(tmp_path / "x")]) == 3

    def test_non_object_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["synth", str(bad), "-o", str(tmp_path / "x")]) == 3

    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"heart_rate_bpm": ' + "[" * 100_000 + "]" * 100_000
                       + "}")
        assert main(["synth", str(bad), "-o", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_unknown_spec_field_is_config_error(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", durationn_s=10.0)
        assert main(["synth", spec, "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("spec", [
        '{"fs": NaN}', '{"duration_s": Infinity}', '{"qrs_width_ms": Infinity}',
        '{"noise_snr_db": NaN}', '{"heart_rate_bpm": [[0, 60], [NaN, 70]]}',
        '{"spike": [1.0, -Infinity]}'])
    def test_non_finite_spec_is_config_error(self, tmp_path, capsys, spec):
        path = tmp_path / "s.json"
        path.write_text(spec)
        assert main(["synth", str(path), "-o", str(tmp_path / "x")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize("spec", [
        '{"fs": "a"}', '{"rr_jitter_frac": null}', '{"noise_snr_db": "a"}',
        '{"spike": 3}', '{"spike": [1.0, 2.0, 3.0]}', '{"spike": ["a", 1]}',
        '{"qrs_amplitude_mv": "x"}', '{"qrs_amplitude_mv": []}',
        '{"qrs_amplitude_mv": [1.0, [0, 1]]}', '{"heart_rate_bpm": [[0]]}',
        '{"heart_rate_bpm": []}', '{"heart_rate_bpm": [[0, "60"]]}',
        '{"t_wave": "no"}', '{"t_wave": 1}', '{"fs": true}', '{"seed": true}',
        pytest.param('{"fs": 1%s}' % ("0" * 400), id="int-past-float-range")])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, spec):
        # Without type checks these end in a traceback (an int past the
        # float range overflows in synth_ecg) or are silently coerced: true
        # as 1, and "no" as a true t_wave.
        path = tmp_path / "s.json"
        path.write_text(spec)
        assert main(["synth", str(path), "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.ann").exists()

    @pytest.mark.parametrize("spec", [
        '{"duration_s": 1e308}', '{"fs": 1e-300}', '{"seed": 1.5}',
        '{"seed": "a"}', '{"seed": -1}'])
    def test_unrenderable_spec_is_config_error(self, tmp_path, capsys, spec):
        # 1e308 s and 1e-300 Hz round to no finite sample count >= 1; the
        # seed must be an integer >= 0. Large finite durations would allocate.
        path = tmp_path / "s.json"
        path.write_text(spec)
        assert main(["synth", str(path), "-o", str(tmp_path / "x")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.ann").exists()


class TestDetectCommand:
    def test_perfect_on_clean_record(self, clean, tmp_path):
        out = tmp_path / "det.csv"
        assert main(["detect", clean["csv"], "--fs", "360",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == DETECTIONS_HEADER
        assert len(rows) == clean["beats"]
        indices = [int(r[0]) for r in rows]
        assert indices == sorted(indices)
        for r in rows:
            assert float(r[1]) == pytest.approx(int(r[0]) / 360.0)
            assert r[2] in ("threshold1", "searchback_t3", "spike_recovery",
                            "searchback_t2")

    def test_default_output_name(self, clean, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["detect", clean["csv"], "--fs", "360"]) == 0
        assert (tmp_path / "rec.detections.csv").exists()

    def test_idempotent_byte_identical(self, clean, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["detect", clean["csv"], "--fs", "360", "-o", str(a)]) == 0
        assert main(["detect", clean["csv"], "--fs", "360", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_classic_detector_selectable(self, clean, tmp_path):
        out = tmp_path / "pt.csv"
        assert main(["detect", clean["csv"], "--fs", "360",
                     "--detector", "pt", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == clean["beats"]

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path / "nope.csv")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_csv_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\nfoo\nbar\n")
        assert main(["detect", str(bad), "-o", str(tmp_path / "o.csv")]) == 3

    def test_too_short_record_is_processing_error(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("".join(f"{v}\n" for v in np.zeros(100)))
        assert main(["detect", str(short), "--fs", "360",
                     "-o", str(tmp_path / "o.csv")]) == 4

    def test_unknown_config_key_rejected(self, clean, tmp_path, capsys):
        assert main(["detect", clean["csv"], "--set", "detector.bogus=1",
                     "-o", str(tmp_path / "o.csv")]) == 2
        assert "detector.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("args,code,message", [
        (["{csv}", "--set", "foo.bar=1"], 2,
         "unknown config section in 'foo.bar'"),
        (["{csv}", "--set", "foo"], 2, "--set expects key=value, got 'foo'"),
        (["{json}"], 3, "cannot infer record format from 'r.json'"),
        (["{csv}", "--channel", "3"], 2, "channel index 3 out of range"),
    ], ids=["unknown-section", "no-equals", "unknown-suffix", "channel"])
    def test_refusal_names_its_cause(self, clean, tmp_path, capsys, args,
                                     code, message):
        record = tmp_path / "r.json"
        record.write_text("1\n2\n")
        out = tmp_path / "out.csv"
        argv = [a.format(csv=clean["csv"], json=record) for a in args]
        assert main(["detect", *argv, "-o", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_config_value_rejected(self, clean, tmp_path):
        assert main(["detect", clean["csv"],
                     "--set", "detector.rr_history_beats=abc",
                     "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("record", ["missing", "malformed"])
    def test_bad_value_reported_before_inputs(self, tmp_path, capsys,
                                              record):
        bad = tmp_path / "bad.csv"
        if record == "malformed":
            bad.write_text("value\nfoo\nbar\n")
        assert main(["detect", str(bad),
                     "--set", "detector.min_peak_separation_ms=x",
                     "-o", str(tmp_path / "o.csv")]) == 2
        assert ("bad value for 'detector.min_peak_separation_ms'"
                in capsys.readouterr().err)

    def test_invalid_detector_config_rejected_before_parsing(self, tmp_path):
        # Exit 3 would mean the record was parsed before the config check.
        bad = tmp_path / "bad.csv"
        bad.write_text("abc\nxyz\n")
        assert main(["detect", str(bad),
                     "--set", "detector.min_peak_separation_ms=-1",
                     "-o", str(tmp_path / "o.csv")]) == 2

    def test_invalid_pt_config_reported_before_inputs(self, tmp_path,
                                                      capsys):
        assert main(["detect", str(tmp_path / "nope.csv"), "--detector",
                     "ptpp", "--set", "pt.refractory_ms=-1"]) == 2
        assert ("refractory_ms must be positive and finite, got -1.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("file_fs,argv,fs", [
        (None, ["--set", "eval.fs=250"], 250.0),
        (None, ["--set", "eval.fs=360", "--fs", "250"], 250.0),
        ("500", [], 500.0),
        ("500", ["--set", "eval.fs=250"], 250.0),
        ("500", ["--set", "eval.fs=300", "--fs", "250"], 250.0),
    ])
    def test_sampling_rate_precedence(self, clean, tmp_path, file_fs, argv,
                                      fs):
        # default < config file < --set < flag, read off the time column
        if file_fs is not None:
            cfg = tmp_path / "fs.cfg"
            cfg.write_text(f"eval.fs = {file_fs}\n")
            argv = ["--config", str(cfg)] + argv
        out = tmp_path / "det.csv"
        assert main(["detect", clean["csv"], *argv, "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows
        assert all(float(r[1]) == int(r[0]) / fs for r in rows)

    def test_set_wins_over_config_file(self, clean, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("detector.min_peak_separation_ms = 2000\n")
        base, widened, restored = (tmp_path / n
                                   for n in ("base.csv", "wide.csv", "back.csv"))
        assert main(["detect", clean["csv"], "--fs", "360",
                     "-o", str(base)]) == 0
        assert main(["detect", clean["csv"], "--fs", "360",
                     "--config", str(cfg), "-o", str(widened)]) == 0
        assert main(["detect", clean["csv"], "--fs", "360",
                     "--config", str(cfg),
                     "--set", "detector.min_peak_separation_ms=231",
                     "-o", str(restored)]) == 0
        assert widened.read_bytes() != base.read_bytes()
        assert restored.read_bytes() == base.read_bytes()

    def test_tags_follow_their_decisions_when_peaks_collapse(self, tmp_path):
        # min_sep below twice the ±75 ms snap window lets several decisions
        # snap onto one raw apex; each row must keep its own decision's tag.
        spec = write_spec(tmp_path / "spec.json", duration_s=60.0,
                          noise_snr_db=5.0, seed=0)
        assert main(["synth", spec, "-o", str(tmp_path / "rec")]) == 0
        out = tmp_path / "det.csv"
        assert main(["detect", str(tmp_path / "rec.csv"), "--fs", "360",
                     "--set", "detector.min_peak_separation_ms=60",
                     "--set", "detector.post_peak_blank_ms=60",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)

        x = ptpp.load_csv(tmp_path / "rec.csv", 360.0).channels[0].samples
        stages = ptpp.run_pipeline(x, 360.0)
        decisions = ptpp.detect(stages, 360.0, ptpp.DetectorConfig(
            min_peak_separation_ms=60.0, post_peak_blank_ms=60.0))
        delay = sum(stages.stage_delays_samples.values())
        w = ptpp.ms_to_samples(75.0, 360.0)
        tags_at = {}
        for d, tag in zip(decisions.r_peaks, decisions.provenance):
            c = min(max(int(d) - delay, 0), len(x) - 1)
            lo = max(0, c - w)
            apex = lo + int(np.argmax(np.abs(x[lo:c + w + 1])))
            tags_at.setdefault(apex, set()).add(tag)

        assert len(rows) < len(decisions.r_peaks)  # decisions did collapse
        assert len(set(decisions.provenance)) > 1
        for index, _, tag in rows:
            assert tag in tags_at[int(index)], index


class TestEvalCommand:
    def test_perfect_scores(self, clean, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["eval", clean["csv"], "--annotations", clean["ann"],
                     "--fs", "360", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == METRICS_HEADER
        assert len(rows) == 2
        per_record, pooled = rows
        assert per_record[0] == "ptpp"
        assert per_record[1] == "local"
        assert per_record[2] == "rec"
        assert [int(v) for v in per_record[3:6]] == [clean["beats"], 0, 0]
        assert [float(v) for v in per_record[6:9]] == [1.0, 1.0, 1.0]
        assert float(per_record[9]) > 0.0
        assert pooled[2] == POOLED_ROW_ID
        assert pooled[3:9] == per_record[3:9]

    def test_sibling_annotations_found(self, clean, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["eval", clean["csv"], "--fs", "360",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert int(rows[0][3]) == clean["beats"]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_annotations_flag_needs_a_file(self, clean, tmp_path, command):
        # With no file after the flag, the sibling .ann must not be used.
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, clean["csv"], "--fs", "360", "-o", str(out),
                  "--annotations"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_annotation_count_mismatch(self, clean, tmp_path):
        assert main(["eval", clean["csv"], clean["csv"],
                     "--annotations", clean["ann"],
                     "-o", str(tmp_path / "m.csv")]) == 2

    def test_missing_sibling_annotations(self, tmp_path):
        lonely = tmp_path / "lonely.csv"
        lonely.write_text("".join(f"{v}\n" for v in np.zeros(4000)))
        assert main(["eval", str(lonely), "--fs", "360",
                     "-o", str(tmp_path / "m.csv")]) == 2

    def test_sibling_search_skips_the_record_itself(self, clean, tmp_path,
                                                    capsys):
        rec = tmp_path / "rec.txt"
        rec.write_bytes(Path(clean["csv"]).read_bytes())
        assert main(["eval", str(rec), "--fs", "360",
                     "-o", str(tmp_path / "m.csv")]) == 2
        assert (f"no annotation file found next to '{rec}'"
                in capsys.readouterr().err)

    def test_multi_record_pooling(self, clean, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["eval", clean["csv"], clean["csv"],
                     "--annotations", clean["ann"], clean["ann"],
                     "--fs", "360", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert rows[2][2] == POOLED_ROW_ID
        assert int(rows[2][3]) == 2 * clean["beats"]

    def test_dataset_flag_beats_config_pair(self, clean, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["eval", clean["csv"], "--annotations", clean["ann"],
                     "--fs", "360", "--dataset", "flagged",
                     "--set", "eval.dataset=paired", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert {r[1] for r in rows} == {"flagged"}

    def test_dataset_config_pair_used_without_flag(self, clean, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["eval", clean["csv"], "--annotations", clean["ann"],
                     "--fs", "360", "--set", "eval.dataset=paired",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert {r[1] for r in rows} == {"paired"}

    def test_idempotent_except_timing_column(self, clean, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["eval", clean["csv"], "--annotations", clean["ann"],
                         "--fs", "360", "-o", str(out)]) == 0
        ha, rows_a = read_csv(a)
        hb, rows_b = read_csv(b)
        timing = METRICS_HEADER.index("exec_time_s")
        strip = lambda rows: [r[:timing] + r[timing + 1:] for r in rows]
        assert ha == hb
        assert strip(rows_a) == strip(rows_b)

    def test_eval_tolerance_config_pair(self, clean, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["eval", clean["csv"], "--annotations", clean["ann"],
                     "--fs", "360", "--set", "eval.tolerance_ms=100",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert int(rows[0][3]) == clean["beats"]


class TestCompareCommand:
    def test_spike_record_side_by_side(self, spike, tmp_path):
        out = tmp_path / "cmp.csv"
        dis = tmp_path / "dis.csv"
        assert main(["compare", spike["csv"], "--annotations", spike["ann"],
                     "--fs", "360", "-o", str(out),
                     "--disagreements", str(dis)]) == 0
        header, rows = read_csv(out)
        assert header == METRICS_HEADER
        assert [r[0] for r in rows] == ["ptpp", "ptpp", "pt", "pt"]
        pooled = {r[0]: r for r in rows if r[2] == POOLED_ROW_ID}
        f_new = float(pooled["ptpp"][8])
        f_old = float(pooled["pt"][8])
        assert f_new > 0.98
        assert f_new > f_old

        dis_header, dis_rows = read_csv(dis)
        assert dis_header == ["record", "sample_index", "time_s", "present_in"]
        assert {r[3] for r in dis_rows} <= {"ptpp", "pt"}
        # classic thresholds lock onto the spike, so nearly every true beat
        # is found only by the newer detector
        assert sum(r[3] == "ptpp" for r in dis_rows) > 100
        indices = [int(r[1]) for r in dis_rows]
        assert indices == sorted(indices)

    def test_default_disagreements_path(self, clean, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", clean["csv"], "--annotations", clean["ann"],
                     "--fs", "360", "-o", str(out)]) == 0
        assert (tmp_path / "cmp_disagreements.csv").exists()


class TestStagesCommand:
    def test_seven_column_dump(self, clean, tmp_path):
        out = tmp_path / "stages.csv"
        assert main(["stages", clean["csv"], "--fs", "360",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == STAGES_HEADER
        record = ptpp.load_csv(clean["csv"], sampling_rate_hz=360.0)
        assert len(rows) == record.duration_samples
        assert [int(r[0]) for r in rows[:3]] == [0, 1, 2]
        probe = rows[1000]
        assert float(probe[1]) == record.channels[0].samples[1000]
        for value in probe[1:]:
            float(value)  # every stage column must round-trip as a number

    def test_classic_variant_skips_smoothing(self, clean, tmp_path):
        out = tmp_path / "stages_pt.csv"
        assert main(["stages", clean["csv"], "--fs", "360", "--detector", "pt",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        squared = [r[4] for r in rows]
        smoothed = [r[5] for r in rows]
        assert squared == smoothed

    @pytest.mark.parametrize("word", ["off", "false", "0", "no"])
    def test_smoothing_switched_off_by_word(self, clean, tmp_path, word):
        out = tmp_path / "stages.csv"
        assert main(["stages", clean["csv"], "--fs", "360",
                     "--set", f"pipeline.smooth_enabled={word}",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[4] for r in rows] == [r[5] for r in rows]

    @pytest.mark.parametrize("word", ["on", "true", "1", "yes", "On"])
    def test_smoothing_switched_on_by_word(self, clean, tmp_path, word):
        out = tmp_path / "stages.csv"
        assert main(["stages", clean["csv"], "--fs", "360", "--detector", "pt",
                     "--set", f"pipeline.smooth_enabled={word}",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[4] for r in rows] != [r[5] for r in rows]

    @pytest.mark.parametrize("word", ["maybe", "2"])
    def test_smoothing_switch_takes_only_known_words(self, clean, tmp_path,
                                                     capsys, word):
        assert main(["stages", clean["csv"], "--fs", "360",
                     "--set", f"pipeline.smooth_enabled={word}",
                     "-o", str(tmp_path / "stages.csv")]) == 2
        assert ("bad value for 'pipeline.smooth_enabled'"
                in capsys.readouterr().err)


class TestBenchCommand:
    def test_reports_both_detectors(self, clean, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", clean["csv"], "--fs", "360", "--repeats", "1",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["detector", "record", "n_samples",
                          "sampling_rate_hz", "median_s", "runs", "note"]
        assert [r[0] for r in rows] == ["ptpp", "pt"]
        for r in rows:
            assert float(r[4]) > 0.0
            assert int(r[5]) == 5  # repeats are floored at five
            assert r[6] == "serialized-single-thread"
        assert "ratio" in capsys.readouterr().out

    def test_times_the_chosen_lead(self, tmp_path, monkeypatch):
        # Two leads of 600 samples at 250 Hz; only V5 (all 7s) is timed.
        (tmp_path / "r.dat").write_bytes(encode212([3, 7] * 600))
        header = tmp_path / "r.hea"
        header.write_text(make_header("r", 250.0, 600, [
            "r.dat 212 200 12 0 0 0 0 MLII", "r.dat 212 200 12 0 0 0 0 V5"]))
        timed = []

        def fake_run(detector, samples, fs, **configs):
            timed.append((detector, samples.tolist(), fs))
        monkeypatch.setattr(ptpp.evaluation, "run_detector", fake_run)
        out = tmp_path / "bench.csv"
        assert main(["bench", str(header), "--channel", "V5",
                     "-o", str(out)]) == 0
        assert timed == [("ptpp", [0.035] * 600, 250.0)] * 5 + \
            [("pt", [0.035] * 600, 250.0)] * 5
        _, rows = read_csv(out)
        assert [row[1:4] for row in rows] == [["r", "600", "250.0"]] * 2


class TestDataRoot:
    def test_inputs_resolved_under_root(self, clean, tmp_path, monkeypatch):
        import pathlib
        root = pathlib.Path(clean["csv"]).parent
        monkeypatch.setenv("PTPP_DATA_ROOT", str(root))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "m.csv"
        assert main(["eval", "rec.csv", "--annotations", "rec.ann",
                     "--fs", "360", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert int(rows[0][3]) == clean["beats"]

    def test_error_mentions_root_when_set(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setenv("PTPP_DATA_ROOT", str(tmp_path))
        assert main(["detect", "absent.csv"]) == 2
        assert "PTPP_DATA_ROOT" in capsys.readouterr().err


class TestNumericInputs:
    """NaN and out-of-range numbers end in a typed error, not a traceback;
    inf still switches off the two absolute-time triggers that allow it."""

    @pytest.mark.parametrize("argv,code", [
        (["detect", "{csv}", "--set", "detector.min_peak_separation_ms=nan"],
         2),
        (["detect", "{csv}", "--set", "detector.post_peak_blank_ms=inf"], 2),
        (["detect", "{csv}", "--set", "detector.init_window_s=inf"], 2),
        (["detect", "{csv}", "--set", "detector.searchback_rr_factor=nan"], 2),
        (["detect", "{csv}", "--set", "detector.spike_recovery_t2_frac=nan"],
         2),
        (["detect", "{csv}", "--set", "pipeline.smooth_window_ms=nan"], 2),
        (["detect", "{csv}", "--set", "pipeline.mwi_window_ms=inf"], 2),
        (["detect", "{csv}", "--detector", "pt",
          "--set", "pt.refractory_ms=nan"], 2),
        (["detect", "{csv}", "--fs", "nan"], 2),
        (["detect", "{csv}", "--set", "eval.fs=inf"], 2),
        (["eval", "{csv}", "--annotations", "{ann}", "--tolerance-ms", "nan"],
         2),
        (["eval", "{csv}", "--annotations", "{ann}", "--tolerance-ms", "-5"],
         2),
        (["detect", "{nan_hea}"], 3),
        (["detect", "{inf_hea}"], 3),
        (["detect", "{csv}", "--set", "detector.searchback_abs_s=inf"], 0),
        (["detect", "{csv}", "--set", "detector.spike_recovery_s=inf"], 0),
        (["compare", "{csv}", "--annotations", "{ann}",
          "--set", "detector.min_peak_separation_ms=1e300"], 0),
        (["compare", "{csv}", "--annotations", "{ann}",
          "--set", "pt.refractory_ms=1e300"], 0),
        (["compare", "{csv}", "--annotations", "{ann}",
          "--set", "detector.rr_history_beats=99999999999999999999"], 2),
        (["detect", "{csv}", "--set", "detector.min_peak_separation_ms=1e308"],
         0),
        (["detect", "{csv}", "--set", "detector.searchback_abs_s=1e308"], 0),
        (["detect", "{csv}", "--set", "detector.init_window_s=1e308"], 4),
        (["detect", "{csv}", "--set", "detector.init_window_s=1e-300"], 0),
        (["detect", "{csv}", "--set", "pipeline.band_low_hz=5e-324"], 2),
        (["eval", "{csv}", "--annotations", "{ann}", "--tolerance-ms",
          "1e308"], 0),
        (["detect", "{no_dat_hea}"], 2),
        (["detect", "{dot_hea}"], 2),
        (["detect", "{dir_csv}"], 2),
        (["detect", "{csv}", "-o", "{nodir_out}"], 2),
        (["stages", "{csv}", "-o", "{nodir_out}"], 2),
        (["detect", "{x2_hea}"], 3),
        (["detect", "{two_files_hea}"], 3),
        (["detect", "{csv}", "--set", "pipeline.zero_phase=true"], 2),
        # Band-passes whose centre delay is longer than the record.
        (["detect", "{csv}", "--set", "pipeline.filter_order=12",
          "--set", "pipeline.band_low_hz=17.99"], 4),
        (["detect", "{csv}", "--set", "pipeline.filter_order=12",
          "--set", "pipeline.band_low_hz=9.99",
          "--set", "pipeline.band_high_hz=10.01"], 4),
        # Band-passes whose delay is undefined (poles on z = 1): at the
        # centre, at the 10 Hz probe (NaN) and at the probe again (inf).
        (["detect", "{csv}", "--set", "pipeline.band_low_hz=1e-300"], 4),
        (["detect", "{csv}", "--set", "eval.fs=1e11",
          "--set", "pipeline.band_low_hz=1e-6",
          "--set", "pipeline.band_high_hz=1e10",
          "--set", "pipeline.filter_order=2"], 4),
        (["detect", "{csv}", "--set", "eval.fs=1e11",
          "--set", "pipeline.band_low_hz=1e-5",
          "--set", "pipeline.band_high_hz=1e9",
          "--set", "pipeline.filter_order=5"], 4),
        # Butterworth designs whose gain overflows, turns NaN or underflows.
        (["detect", "{csv}", "--set", "pipeline.filter_order=50",
          "--set", "pipeline.band_high_hz=179.9999"], 2),
        (["stages", "{csv}", "--set", "pipeline.filter_order=50",
          "--set", "pipeline.band_high_hz=179.9999"], 2),
        (["detect", "{csv}", "--set", "pipeline.filter_order=250"], 2),
        (["stages", "{csv}", "--set", "pipeline.filter_order=250"], 2),
        (["detect", "{csv}", "--set", "pipeline.filter_order=249"], 2),
        # A design that fits a float but whose filtered output drifts from it.
        (["detect", "{csv}", "--set", "pipeline.filter_order=150"], 2),
        # Outputs that name an input.
        (["detect", "{rec}", "-o", "{rec}"], 2),
        (["stages", "{rec}", "-o", "{rec}"], 2),
        (["eval", "{rec}", "--annotations", "{rec_ann}", "-o", "{rec_ann}"],
         2),
        (["compare", "{rec}", "--annotations", "{rec_ann}",
          "--disagreements", "{rec}"], 2),
        (["bench", "{rec}", "-o", "{rec}"], 2),
        # Both compare tables sent to one file.
        (["compare", "{csv}", "--annotations", "{ann}", "-o", "{tmp}/x.csv",
          "--disagreements", "{tmp}/x.csv"], 2),
        (["compare", "{csv}", "--annotations", "{ann}", "-o", "{tmp}/./x.csv",
          "--disagreements", "{tmp}/sub/../x.csv"], 2),
        (["synth", "{spec_ann}", "-o", "{spec_stem}"], 2),
        # WFDB gap markers.
        (["detect", "{gap212_hea}"], 3),
        (["detect", "{gap16_hea}"], 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit{v}")
    def test_exit_code_without_traceback(self, clean, tmp_path, capsys, argv,
                                         code):
        # Inputs a failed run must leave as they are.
        rec, rec_ann = tmp_path / "rec.csv", tmp_path / "rec.ann"
        rec.write_bytes(Path(clean["csv"]).read_bytes())
        rec_ann.write_bytes(Path(clean["ann"]).read_bytes())
        spec_ann = tmp_path / "spec.ann"
        write_spec(spec_ann, duration_s=5.0)
        gap = np.zeros((1500, 2), dtype=np.int64)
        gap[1234, 1] = -2048
        (tmp_path / "gap212.dat").write_bytes(encode212(gap.ravel()))
        gap[1234, 1] = -32768
        (tmp_path / "gap16.dat").write_bytes(gap.astype("<i2").tobytes())
        paths = {"csv": clean["csv"], "ann": clean["ann"], "rec": rec,
                 "rec_ann": rec_ann, "spec_ann": spec_ann,
                 "spec_stem": tmp_path / "spec", "tmp": tmp_path}
        for fmt in (212, 16):
            paths[f"gap{fmt}_hea"] = tmp_path / f"gap{fmt}.hea"
            paths[f"gap{fmt}_hea"].write_text(make_header(
                f"gap{fmt}", 360.0, 1500,
                [f"gap{fmt}.dat {fmt} 200 12 0 0 0 0 MLII",
                 f"gap{fmt}.dat {fmt} 200 12 0 0 0 0 V5"]))
        line = "r.dat 212 200 12 0 0 0 0 MLII"
        for name, fs, lines in (
                ("nan_hea", "nan", [line]), ("inf_hea", "inf", [line]),
                ("no_dat_hea", "360", [line]),
                ("dot_hea", "360", [". 212 200 12 0 0 0 0 MLII"]),
                ("x2_hea", "360", ["r.dat 212x2 200 12 0 0 0 0 MLII"]),
                ("two_files_hea", "360",
                 [line, "s.dat 212 200 12 0 0 0 0 V5"])):
            paths[name] = tmp_path / f"{name}.hea"
            paths[name].write_text(make_header("r", float(fs), 10, lines))
        # Files that cannot be read or written; stderr names each one.
        unusable = {"no_dat_hea": tmp_path / "r.dat", "dot_hea": tmp_path,
                    "dir_csv": tmp_path / "dir.csv",
                    "nodir_out": tmp_path / "nodir" / "out.csv"}
        unusable["dir_csv"].mkdir()
        paths.update(dir_csv=unusable["dir_csv"],
                     nodir_out=unusable["nodir_out"])
        args = [arg.format(**paths) for arg in argv]
        if "-o" not in args:
            args += ["-o", str(tmp_path / "out.csv")]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()
                  if path.is_file()}
        assert main(args) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        family = {2: "config error: ", 3: "parse error: ",
                  4: "processing error: "}
        if code:
            assert family[code] in err
            # A refused run writes nothing and changes nothing.
            assert {path: path.read_bytes() for path in tmp_path.iterdir()
                    if path.is_file()} == before
        if "{gap212_hea}" in argv or "{gap16_hea}" in argv:
            fmt = 212 if "{gap212_hea}" in argv else 16
            assert (f"gap{fmt}.hea: lead 'V5' holds the format-{fmt} "
                    f"invalid-sample code {-2048 if fmt == 212 else -32768} "
                    f"(a signal gap) at sample 1234") in err
        for flag, value in zip(argv, argv[1:]):
            if flag in ("-o", "--disagreements") and value in (
                    "{rec}", "{rec_ann}", "{spec_stem}"):
                source = paths["spec_ann" if value == "{spec_stem}"
                               else value[1:-1]]
                assert f"would overwrite input {source}" in err
        if "-o" in argv and "--disagreements" in argv:
            assert "-o/--output and --disagreements both name" in err
        if code == 2 and any("filter_order" in arg for arg in argv):
            assert "Butterworth band-pass of" in err
        if "eval.fs=1e11" in argv or "pipeline.band_low_hz=1e-300" in argv:
            assert "band-pass delay undefined at" in err
        for name, path in unusable.items():
            if f"{{{name}}}" in argv:
                assert f"config error: {path}: " in err


    @pytest.mark.parametrize("gain", ["e", "1e999"])
    def test_bad_gain_exits_3(self, tmp_path, capsys, gain):
        header = tmp_path / "r.hea"
        header.write_text(make_header("r", 360.0, 10,
                                      [f"r.dat 212 {gain} 12 0 0 0 0 MLII"]))
        assert main(["detect", str(header),
                     "-o", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert "line 2: bad gain field" in err
        assert "Traceback" not in err

    def test_smoothing_window_checked_before_kernel(self, clean, tmp_path,
                                                   capsys, monkeypatch):
        # A window longer than the record is refused before its kernel is
        # allocated; a window of 1e9 ms would need gigabytes for it.
        def no_kernel(width):
            raise AssertionError(f"flattop_kernel({width}) was called")
        monkeypatch.setattr(ptpp.pipeline, "flattop_kernel", no_kernel)
        assert main(["detect", clean["csv"], "--set",
                     "pipeline.smooth_window_ms=1e6",
                     "-o", str(tmp_path / "out.csv")]) == 4
        assert "longer than signal" in capsys.readouterr().err


# Every duration key: the detector 7, pipeline 2 and pt 2 keys in ms or s.
_DURATION_KEYS = [f"{section}.{f.name}"
                  for section, cls in (("detector", ptpp.DetectorConfig),
                                       ("pipeline", ptpp.PipelineConfig),
                                       ("pt", ptpp.PtConfig))
                  for f in fields(cls) if f.name.endswith(("_ms", "_s"))]


class TestDurationOverflow:
    """A duration whose sample count overflows a float is a duration longer
    than the record: 1e308 gives the exit code and the rows 1e300 gives,
    whatever the rhythm decides about which rules run."""

    @pytest.fixture(scope="class", params=[70.0, 200.0],
                    ids=["70bpm", "200bpm"])
    def record(self, request, tmp_path_factory):
        root = tmp_path_factory.mktemp("rate")
        spec = write_spec(root / "spec.json", duration_s=10.0,
                          heart_rate_bpm=request.param, noise_snr_db=25.0,
                          seed=3)
        assert main(["synth", spec, "-o", str(root / "rec")]) == 0
        return str(root / "rec.csv")

    def test_keys(self):
        assert len(_DURATION_KEYS) == 11

    @pytest.mark.parametrize("key", _DURATION_KEYS)
    def test_overflowing_count_acts_as_huge(self, record, tmp_path, capsys,
                                            key):
        outcomes = []
        for value in ("1e300", "1e308"):
            out = tmp_path / f"{value}.csv"
            argv = ["detect", record, "--set", f"{key}={value}",
                    "-o", str(out)]
            if key.startswith("pt."):
                argv += ["--detector", "pt"]
            outcomes.append((main(argv),
                             out.read_bytes() if out.exists() else None))
        assert "Traceback" not in capsys.readouterr().err
        assert outcomes[0] == outcomes[1]


# Every settable key but pipeline.filter_order, whose cost grows with its
# value; it is drawn from a range the filter design handles quickly.
_SETTING_KEYS = [f"{section}.{f.name}"
                 for section, cls in (("pipeline", ptpp.PipelineConfig),
                                      ("detector", ptpp.DetectorConfig),
                                      ("pt", ptpp.PtConfig))
                 for f in fields(cls) if f.name != "filter_order"]
_SETTING_KEYS += ["eval.fs", "eval.tolerance_ms", "eval.dataset"]

_setting_values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1.7976931348623157e308",
                     "1e999", "5e-324", "1e-300", "0", "-0", "-1", "",
                     "true", "off", "x", "99999999999999999999",
                     "-99999999999999999999"]),
    st.floats().map(repr),
    st.integers(-2**80, 2**80).map(str),
    st.text(max_size=6),
)


class TestSettingsFuzz:
    """Any mix of --set values runs or ends in a typed error; an exception
    that escapes ``main`` fails the test by itself."""

    @pytest.fixture(scope="class")
    def short(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("short")
        spec = write_spec(root / "spec.json", duration_s=8.0,
                          noise_snr_db=15.0, seed=2)
        assert main(["synth", spec, "-o", str(root / "rec")]) == 0
        return root

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(pairs=st.lists(st.one_of(
        st.tuples(st.sampled_from(_SETTING_KEYS), _setting_values),
        st.tuples(st.just("pipeline.filter_order"),
                  st.integers(1, 12).map(str))), max_size=4))
    # Delays that scipy's group_delay misread, with a warning or a
    # division by zero.
    @hypothesis.example(pairs=[("eval.fs", "222798")])
    @hypothesis.example(pairs=[("eval.fs", "99999999999999999999")])
    @hypothesis.example(pairs=[("pipeline.band_low_hz", "1e-300")])
    def test_exit_code_is_typed(self, short, pairs):
        argv = ["compare", str(short / "rec.csv"),
                "--annotations", str(short / "rec.ann"),
                "-o", str(short / "out.csv")]
        for key, value in pairs:
            argv += ["--set", f"{key}={value}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is no typed exit
            assert main(argv) in (0, 2, 3, 4)


class TestNonUtf8Input:
    """Bytes that are not UTF-8 end in a typed error that names the file and
    the offset of the first bad byte, in every text reader."""

    @pytest.mark.parametrize("name,content,argv,code", [
        ("bad.csv", b"\xff\n1\n", ["detect", "{bad}"], 3),
        ("bad.hea", make_header("r", 360.0, 10, [
            "r.dat 212 200 12 0 0 0 0 ML\xffII"]).encode("latin-1"),
         ["detect", "{bad}"], 3),
        ("bad.ann", b"1\n2\n\xff3\n",
         ["eval", "{csv}", "--annotations", "{bad}"], 3),
        ("bad.cfg", b"detector.rr_history_beats = 6\n\xff\n",
         ["detect", "{csv}", "--config", "{bad}"], 2),
        ("bad.json", b'{"seed": "\xff"}', ["synth", "{bad}"], 3),
    ], ids=["csv", "header", "annotations", "config", "spec"])
    def test_typed_error_names_the_byte(self, clean, tmp_path, capsys, name,
                                        content, argv, code):
        bad = tmp_path / name
        bad.write_bytes(content)
        args = [arg.format(bad=bad, csv=clean["csv"]) for arg in argv]
        assert main(args + ["-o", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        offset = content.index(b"\xff")
        assert f"{bad}: byte {offset}: not UTF-8 text" in err
        assert "Traceback" not in err
