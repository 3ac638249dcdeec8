"""Command-line front door: detect, eval, compare, stages, bench, synth."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baseline import PtConfig
from .detector import DetectorConfig
from .errors import ConfigError, ParseError, PtppError
from .evaluation import (SynthSpec, match_beats, metrics, synth_ecg,
                         time_detectors, timed_call)
from .io import (AnnotationSet, Record, _write_columns, load_annotations,
                 load_csv, load_wfdb_record, read_text, save_annotations,
                 save_csv)
from .pipeline import PipelineConfig, run_pipeline
from .runner import DETECTORS, default_pipeline_config, run_detector

log = logging.getLogger("ptpp")

DATA_ROOT_ENV = "PTPP_DATA_ROOT"
POOLED_ROW_ID = "ALL"

METRICS_HEADER = ["detector", "dataset", "record", "tp", "fp", "fn",
                  "ppv", "sensitivity", "f_score", "exec_time_s"]
DETECTIONS_HEADER = ["sample_index", "time_s", "provenance"]
STAGES_HEADER = ["sample_index", "raw", "filtered", "derived", "squared",
                 "smoothed", "integrated"]

_PREFERRED_LABELS = ("mlii", "ii")

_EVAL_DEFAULTS = {"tolerance_ms": 100.0, "dataset": "local", "fs": 360.0}
# Every section's keys and defaults; a value takes its default's type.
_DEFAULTS = {
    **{section: {f.name: f.default for f in dataclass_fields(cls)}
       for section, cls in (("pipeline", PipelineConfig),
                            ("detector", DetectorConfig), ("pt", PtConfig))},
    "eval": _EVAL_DEFAULTS,
}


# --------------------------------------------------------------------------
# config file handling

def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Flat ``section.key = value`` lines; '#' comments and blanks ignored."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        pairs[key.strip()] = value.strip()
    return pairs


def _coerce_like(default_value, text: str, full_key: str):
    try:
        if isinstance(default_value, bool):
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if isinstance(default_value, int):
            return int(text)
        if isinstance(default_value, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for '{full_key}': {text!r}") from exc


def resolve_settings(args: argparse.Namespace) -> None:
    """Type, check and validate every setting before any input is read.

    Pairs come from the config file, then ``--set`` pairs on top; an eval
    value is its flag, else its pair, else its default. Sets ``args.fs``,
    ``args.tolerance_ms``, ``args.dataset`` and ``args.run_cfgs``, each
    detector's ``run_detector`` config keywords.
    """
    pairs: dict[str, str] = {}
    if args.config_file:
        path = _resolve_input(args.config_file)
        pairs.update(parse_config_text(read_text(path, ConfigError),
                                       source=str(path)))
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {item!r}")
        pairs[key.strip()] = value.strip()
    typed: dict[str, dict] = {section: {} for section in _DEFAULTS}
    for full_key, raw in pairs.items():
        section, _, key = full_key.partition(".")
        if section not in _DEFAULTS:
            raise ConfigError(
                f"unknown config section in '{full_key}' "
                f"(expected one of: pipeline, detector, pt, eval)")
        if key not in _DEFAULTS[section]:
            raise ConfigError(
                f"unknown config key '{full_key}' "
                f"({section} accepts: {sorted(_DEFAULTS[section])})")
        typed[section][key] = _coerce_like(_DEFAULTS[section][key], raw,
                                           full_key)
    detector_cfg = DetectorConfig(**typed["detector"])
    pt_cfg = PtConfig(**typed["pt"])
    detector_cfg.validate()
    pt_cfg.validate()
    args.run_cfgs = {
        d: {"pipeline_cfg": replace(default_pipeline_config(d),
                                    **typed["pipeline"]),
            "detector_cfg": detector_cfg, "pt_cfg": pt_cfg}
        for d in DETECTORS}
    for key, default in _EVAL_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, typed["eval"].get(key, default))


# --------------------------------------------------------------------------
# input plumbing

def _resolve_input(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    root = os.environ.get(DATA_ROOT_ENV)
    if root:
        candidate = Path(root) / path_str
        if candidate.exists():
            return candidate
    hint = f" (also tried under ${DATA_ROOT_ENV})" if root else ""
    raise ConfigError(f"input file not found: {path_str}{hint}")


def _open_lead(path_str: str,
               args: argparse.Namespace) -> tuple[Path, np.ndarray, float]:
    """The resolved path, samples and sampling rate of the analysed lead;
    the record's other leads are let go here."""
    path = _resolve_input(path_str)
    suffix = path.suffix.lower()
    if suffix == ".hea":
        record = load_wfdb_record(path)
    elif suffix in (".csv", ".txt"):
        record = load_csv(path, sampling_rate_hz=args.fs)
    else:
        raise ParseError(f"cannot infer record format from '{path.name}' "
                         "(expected .hea, .csv or .txt)")
    channel = resolve_channel(record, args.channel)
    return path, record.channels[channel].samples, record.sampling_rate_hz


def resolve_channel(record: Record, selector: Optional[str]) -> int:
    labels = record.channel_labels()
    if selector is None:
        lowered = [lab.lower() for lab in labels]
        for preferred in _PREFERRED_LABELS:
            if preferred in lowered:
                return lowered.index(preferred)
        if len(labels) > 1:
            log.warning("no channel given and no conventional lead label "
                        "found; using channel 0 (%s)", labels[0])
        return 0
    stripped = selector.strip()
    if stripped.lstrip("-").isdigit():
        index = int(stripped)
        if 0 <= index < len(labels):
            return index
        raise ConfigError(f"channel index {index} out of range; "
                          f"record has channels {labels}")
    lowered = stripped.lower()
    for i, lab in enumerate(labels):
        if lab.lower() == lowered:
            return i
    raise ConfigError(f"unknown channel label '{selector}'; "
                      f"available: {labels}")


def _annotation_paths(args: argparse.Namespace) -> list[Path]:
    if args.annotations:
        if len(args.annotations) != len(args.records):
            raise ConfigError(
                f"got {len(args.records)} record(s) but "
                f"{len(args.annotations)} annotation file(s)")
        return [_resolve_input(a) for a in args.annotations]
    derived = []
    for rec in args.records:
        base = Path(rec)
        found = None
        for suffix in (".atr", ".ann", ".txt"):
            sibling = base.with_suffix(suffix)
            if sibling == base:  # a .txt record is not its own annotations
                continue
            try:
                found = _resolve_input(str(sibling))
                break
            except ConfigError:
                continue
        if found is None:
            raise ConfigError(
                f"no annotation file found next to '{rec}' "
                "(looked for .atr/.ann/.txt); pass --annotations explicitly")
        derived.append(found)
    return derived


# --------------------------------------------------------------------------
# output helpers

def _output_path(name: str | Path, inputs: Sequence[Path]) -> Path:
    """``name`` as an output path, refused if it is one of the ``inputs``
    the command reads (compared after resolving links and ``..``)."""
    out = Path(name)
    for source in inputs:
        if os.path.realpath(out) == os.path.realpath(source):
            raise ConfigError(f"output {out} would overwrite input {source}")
    return out


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt_ratio(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _metrics_row(detector: str, dataset: str, record_id: str, reports,
                 exec_time_s: float) -> list:
    m = metrics(reports, exec_time_s)
    return [detector, dataset, record_id, sum(r.tp for r in reports),
            sum(r.fp for r in reports), sum(r.fn for r in reports),
            _fmt_ratio(m.ppv), _fmt_ratio(m.sensitivity),
            _fmt_ratio(m.f_score), f"{exec_time_s:.4f}"]


# --------------------------------------------------------------------------
# commands

def _cmd_detect(args: argparse.Namespace) -> int:
    path, samples, fs = _open_lead(args.records[0], args)
    out = _output_path(args.output or f"{path.stem}.detections.csv", [path])
    run = run_detector(args.detector, samples, fs,
                       **args.run_cfgs[args.detector])
    rows = []
    for raw_index, tag in zip(run.r_peaks.tolist(), run.provenance):
        rows.append([raw_index, repr(raw_index / fs), tag])
    _write_csv(out, DETECTIONS_HEADER, rows)
    print(f"{len(rows)} detections -> {out}")
    return 0


def _cmd_stages(args: argparse.Namespace) -> int:
    path, samples, fs = _open_lead(args.records[0], args)
    out = _output_path(args.output or f"{path.stem}.stages.csv", [path])
    stages = run_pipeline(samples, fs,
                          args.run_cfgs[args.detector]["pipeline_cfg"])
    _write_columns(out, STAGES_HEADER,
                   [samples, stages.filtered, stages.derived, stages.squared,
                    stages.smoothed, stages.integrated])
    print(f"{len(samples)} samples x 6 stages -> {out}")
    return 0


def _evaluate(detectors: Sequence[str], args: argparse.Namespace):
    """Shared machinery for eval/compare: per-record rows + pooled rows,
    and every file read. Each record is read once; of a detector run only
    its peaks live on."""
    # Per detector, one (report, elapsed, fs, peaks) per record.
    runs: dict[str, list] = {d: [] for d in detectors}
    inputs = []
    for rec_str, ann_path in zip(args.records, _annotation_paths(args)):
        path, samples, fs = _open_lead(rec_str, args)
        inputs += [path, ann_path]
        reference = load_annotations(ann_path)
        for detector in detectors:
            run, elapsed = timed_call(run_detector, detector, samples, fs,
                                      **args.run_cfgs[detector])
            report = match_beats(run.r_peaks, reference, fs, args.tolerance_ms,
                                 record_id=path.stem)
            runs[detector].append((report, elapsed, fs, run.r_peaks))
    rows = []
    for detector in detectors:
        for report, elapsed, _, _ in runs[detector]:
            rows.append(_metrics_row(detector, args.dataset, report.record_id,
                                     [report], elapsed))
        reports, times, *_ = zip(*runs[detector])
        rows.append(_metrics_row(detector, args.dataset, POOLED_ROW_ID,
                                 reports, sum(times)))
    return rows, runs, inputs


def _cmd_eval(args: argparse.Namespace) -> int:
    rows, _, inputs = _evaluate([args.detector], args)
    out = _output_path(args.output or "metrics.csv", inputs)
    _write_csv(out, METRICS_HEADER, rows)
    print(f"{len(rows)} metric rows -> {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows, runs, inputs = _evaluate(list(DETECTORS), args)
    out = _output_path(args.output or "compare_metrics.csv", inputs)
    dis_out = _output_path(args.disagreements
                           or out.with_name(out.stem + "_disagreements.csv"),
                           inputs)
    if os.path.realpath(out) == os.path.realpath(dis_out):
        raise ConfigError(f"-o/--output and --disagreements both name {out}")
    _write_csv(out, METRICS_HEADER, rows)

    disagreement_rows = []
    for (scored, _, fs, peaks_a), (*_, peaks_b) in zip(runs["ptpp"], runs["pt"]):
        rec_id = scored.record_id
        other = AnnotationSet(beat_samples=np.asarray(peaks_b, dtype=np.int64),
                              beat_labels=None, source_format="detections")
        report = match_beats(peaks_a, other, fs, args.tolerance_ms)
        matched_a = {pair[1] for pair in report.matched_pairs}
        matched_b = {pair[0] for pair in report.matched_pairs}
        for idx in peaks_a.tolist():
            if idx not in matched_a:
                disagreement_rows.append(
                    [rec_id, idx, repr(idx / fs), "ptpp"])
        for idx in peaks_b.tolist():
            if idx not in matched_b:
                disagreement_rows.append(
                    [rec_id, idx, repr(idx / fs), "pt"])
    disagreement_rows.sort(key=lambda row: (row[0], row[1]))
    _write_csv(dis_out, ["record", "sample_index", "time_s", "present_in"],
               disagreement_rows)
    print(f"{len(rows)} metric rows -> {out}; "
          f"{len(disagreement_rows)} disagreements -> {dis_out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    path, samples, fs = _open_lead(args.records[0], args)
    out = _output_path(args.output or "bench.csv", [path])
    runs = max(5, args.repeats)  # a median of fewer runs is too noisy
    medians = time_detectors(samples, fs, repeats=runs, configs=args.run_cfgs)
    rows = [[detector, path.stem, len(samples), repr(fs), f"{s:.4f}", runs,
             "serialized-single-thread"] for detector, s in medians.items()]
    _write_csv(out, ["detector", "record", "n_samples", "sampling_rate_hz",
                     "median_s", "runs", "note"], rows)
    ratio = medians["ptpp"] / medians["pt"] if medians["pt"] > 0 else float("inf")
    print(f"ptpp median {medians['ptpp']:.4f} s, pt median "
          f"{medians['pt']:.4f} s, ptpp/pt ratio {ratio:.3f} -> {out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec_path = _resolve_input(args.spec_file)
    try:
        raw = json.loads(read_text(spec_path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{spec_path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ParseError(f"{spec_path}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{spec_path}: expected a JSON object")
    spec = SynthSpec.from_dict(raw)
    stem = Path(args.output or spec_path.stem)
    if stem.suffix in (".csv", ".ann"):  # any other dotted tail is kept
        stem = stem.with_suffix("")
    csv_path = _output_path(f"{stem}.csv", [spec_path])
    ann_path = _output_path(f"{stem}.ann", [spec_path])
    record, annotations = synth_ecg(spec)
    save_csv(record, csv_path)
    save_annotations(annotations, ann_path)
    print(f"{len(annotations.beat_samples)} beats, "
          f"{record.duration_samples} samples at {record.sampling_rate_hz:g} Hz "
          f"-> {csv_path}, {ann_path}")
    return 0


# --------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptpp",
        description="Pan-Tompkins++ R-peak detection toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several commands, each declared once in a parent.
    one_record, many_records, common, detector, scoring = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    for records, nargs in ((one_record, 1), (many_records, "+")):
        records.add_argument("records", nargs=nargs, metavar="RECORD",
                             help="record file (.hea for WFDB, .csv/.txt for "
                                  "plain samples)")
    common.add_argument("--channel", help="channel label or index (default: "
                                          "MLII/II if present, else 0)")
    common.add_argument("--config", dest="config_file", metavar="FILE",
                        help="key=value config file")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config key (repeatable; wins over "
                             "--config)")
    common.add_argument("--fs", type=float, help="sampling rate for .csv/.txt "
                                                 "records (default 360)")
    common.add_argument("--output", "-o", help="output path")
    detector.add_argument("--detector", choices=DETECTORS, default="ptpp")
    scoring.add_argument("--annotations", nargs="+", default=[], metavar="FILE",
                         help="annotation files, one per record "
                              "(default: sibling .atr/.ann/.txt)")
    scoring.add_argument("--tolerance-ms", type=float, dest="tolerance_ms")
    scoring.add_argument("--dataset", help="dataset label for the report")

    def command(name, handler, summary, *parents):
        sub = commands.add_parser(name, help=summary, parents=parents)
        sub.set_defaults(handler=handler)
        return sub

    command("detect", _cmd_detect, "write a detection CSV",
            one_record, common, detector)
    command("eval", _cmd_eval, "score detections against annotations",
            many_records, common, detector, scoring)
    compare = command("compare", _cmd_compare,
                      "run both detectors and report side by side",
                      many_records, common, scoring)
    compare.add_argument("--disagreements", metavar="FILE",
                         help="where to write the per-record disagreement "
                              "list")
    command("stages", _cmd_stages, "dump every pipeline stage for one record",
            one_record, common, detector)
    bench = command("bench", _cmd_bench, "time both detectors on one record",
                    one_record, common)
    bench.add_argument("--repeats", type=int, default=5)
    synth = command("synth", _cmd_synth,
                    "render a synthetic record from a JSON spec")
    synth.add_argument("spec_file", metavar="SPEC_JSON")
    synth.add_argument("--output", "-o",
                       help="output stem (writes <stem>.csv and <stem>.ann)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "synth":  # synth takes no settings
            resolve_settings(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"config error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PtppError as exc:
        print(f"processing error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
