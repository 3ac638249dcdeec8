"""Seeded workloads: each renders its records with ``ptpp.synth_ecg``, writes
them with the benchmark's own writers and lists the CLI calls to time.

Input paths in an op are absolute; output paths are relative to the working
directory of the worker that runs it, so that two workers running the same
op at once never write the same file.

A workload seed selects one of ``N_VARIANTS`` input variants
(``seed % N_VARIANTS``); the outputs of every variant at full size are
frozen in ``frozen.json``, so every op of every run can be checked
byte for byte whatever seed it is given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import formats

N_VARIANTS = 16
FS = 360.0


@dataclass(frozen=True)
class Size:
    holter_s: float
    holter_segment_s: float
    csv_records: int
    csv_s: float
    stages_records: int
    stages_s: float


FULL = Size(holter_s=2 * 3600.0, holter_segment_s=600.0, csv_records=24,
            csv_s=600.0, stages_records=8, stages_s=75.0)
SMOKE = Size(holter_s=240.0, holter_segment_s=40.0, csv_records=3,
             csv_s=40.0, stages_records=2, stages_s=15.0)


@dataclass
class Plan:
    """Everything one run needs: the ops, input fingerprints and the
    detection quality computed in this process (outside any timing)."""

    ops: list[dict]
    inputs: dict[str, str] = field(default_factory=dict)
    quality: dict[str, list[int]] = field(default_factory=dict)  # tp, fp, fn


def _fingerprint(plan: Plan, *paths: Path) -> None:
    for path in paths:
        plan.inputs[path.name] = formats.sha256_file(path)


def _match(detected, truth) -> list[int]:
    tp, fp, fn = checks.match_counts(detected, truth, FS)
    return [tp, fp, fn]


def _pool(counts: list[list[int]]) -> list[int]:
    return [sum(c[i] for c in counts) for i in range(3)]


# --------------------------------------------------------------------------
# holter-2h: one long two-lead WFDB record through `ptpp compare`

def holter_spec(ptpp, variant: int, size: Size):
    rng = np.random.default_rng([7, variant])
    seg = size.holter_segment_s
    n_seg = math.ceil(size.holter_s / seg)
    # The same set of rates in a seeded order keeps the beat count (and so
    # the work) nearly equal across variants.
    bpm = rng.permutation(np.linspace(50.0, 140.0, n_seg))
    rate = [[i * seg, float(b)] for i, b in enumerate(bpm)]
    stretch = min(30.0, seg / 2)
    amplitude = []
    for start in np.arange(0.0, size.holter_s, 2 * seg):
        amplitude += [[float(start), 1.0], [float(start + seg), 0.3],
                      [float(start + seg + stretch), 1.0]]
    spike_at = float(rng.uniform(0.1, 0.9) * size.holter_s)
    return ptpp.SynthSpec(fs=FS, duration_s=size.holter_s,
                          heart_rate_bpm=rate, qrs_amplitude_mv=amplitude,
                          noise_snr_db=12.0, rr_jitter_frac=0.05,
                          spike=(spike_at, 6.0), seed=10_000 + variant)


def render_holter(ptpp, work: Path, variant: int, size: Size) -> Plan:
    record, truth = ptpp.synth_ecg(holter_spec(ptpp, variant, size))
    lead1 = record.channels[0].samples
    noise = np.random.default_rng([8, variant]).standard_normal(len(lead1))
    lead2 = -0.5 * lead1 + 0.03 * noise
    header, _ = formats.write_wfdb212(work, "holter", FS,
                                      [("MLII", lead1), ("V5", lead2)])
    atr = work / "holter.atr"
    formats.write_atr(atr, truth.beat_samples)
    out = Path("out")
    op = {"id": "compare", "kind": "compare", "fs": FS,
          "argv": ["compare", str(header), "-o", str(out / "compare.csv"),
                   "--disagreements", str(out / "disagreements.csv")],
          "outputs": {"metrics": str(out / "compare.csv"),
                      "disagreements": str(out / "disagreements.csv")}}
    plan = Plan(ops=[op])
    _fingerprint(plan, header, work / "holter.dat", atr)
    return plan


# --------------------------------------------------------------------------
# csv-batch-10min: many short single-lead CSV records, one `ptpp detect` each

FAMILIES = ("clean", "noisy", "low_amplitude", "tall_t", "dropout", "spike")


def csv_spec(ptpp, variant: int, k: int, size: Size):
    rng = np.random.default_rng([11, variant, k])
    family = FAMILIES[k % len(FAMILIES)]
    seed = 1000 * (variant + 1) + k
    base = dict(fs=FS, duration_s=size.csv_s, seed=seed)
    if family == "clean":
        return ptpp.SynthSpec(heart_rate_bpm=float(rng.uniform(60, 100)), **base)
    if family == "noisy":
        return ptpp.SynthSpec(heart_rate_bpm=float(rng.uniform(60, 100)),
                              noise_snr_db=10.0, rr_jitter_frac=0.05, **base)
    if family == "low_amplitude":
        return ptpp.SynthSpec(qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.45],
                              t_wave_amplitude=1.4, noise_snr_db=20.0, **base)
    if family == "tall_t":
        return ptpp.SynthSpec(heart_rate_bpm=50.0, t_wave_amplitude=1.3,
                              t_wave_width_ms=135.0, **base)
    if family == "dropout":
        schedule = []
        for start in np.arange(0.0, size.csv_s, 120.0):
            schedule += [[float(start), 1.0], [float(start + 30.0), 0.3],
                         [float(start + 60.0), 1.0]]
        return ptpp.SynthSpec(qrs_amplitude_mv=schedule, noise_snr_db=20.0,
                              **base)
    return ptpp.SynthSpec(spike=(1.9, 10.0), noise_snr_db=20.0, **base)


def render_csv_batch(ptpp, work: Path, variant: int, size: Size) -> Plan:
    plan = Plan(ops=[])
    out = Path("out")
    pt_counts = []
    for k in range(size.csv_records):
        record, truth = ptpp.synth_ecg(csv_spec(ptpp, variant, k, size))
        samples = formats.quantize_uv(record.channels[0].samples)
        path = work / f"rec{k:02d}.csv"
        formats.write_csv(path, samples)
        truth_path = work / f"rec{k:02d}.truth.npy"
        np.save(truth_path, truth.beat_samples)
        _fingerprint(plan, path)
        # In-process reference for the row-count check, and the classic
        # detector's quality (the timed calls run Pan-Tompkins++ only).
        ref = ptpp.run_detector("ptpp", samples, FS)
        pt = ptpp.run_detector("pt", samples, FS)
        pt_counts.append(_match(pt.r_peaks, truth.beat_samples))
        detections = out / f"rec{k:02d}.detections.csv"
        plan.ops.append({
            "id": f"detect-{k:02d}", "kind": "detect", "fs": FS,
            "argv": ["detect", str(path), "-o", str(detections)],
            "outputs": {"detections": str(detections)},
            "truth": str(truth_path),
            "expect_rows": {"r_peaks": len(ref.r_peaks),
                            "provenance tags": len(ref.detection.provenance)}})
    plan.quality["pt"] = _pool(pt_counts)
    return plan


# --------------------------------------------------------------------------
# stages-dump-10min: `ptpp synth` plus `ptpp stages` (the write path). The
# stages dump is split over several records so that each run times many
# calls rather than a few long ones.

def render_stages(ptpp, work: Path, variant: int, size: Size) -> Plan:
    d = size.stages_records * size.stages_s
    spec_path = work / "synth_spec.json"
    spec_path.write_text(json.dumps({
        "fs": FS, "duration_s": d,
        "heart_rate_bpm": [[0.0, 70.0], [d / 3, 95.0], [2 * d / 3, 60.0]],
        "noise_snr_db": 15.0, "rr_jitter_frac": 0.05,
        "seed": 20_000 + variant}), encoding="utf-8")
    out = Path("out")
    plan = Plan(ops=[
        {"id": "synth", "kind": "synth", "fs": FS,
         "argv": ["synth", str(spec_path), "-o", str(out / "synth")],
         "outputs": {"csv": str(out / "synth.csv"),
                     "ann": str(out / "synth.ann")}}])
    _fingerprint(plan, spec_path)
    counts: dict[str, list] = {"ptpp": [], "pt": []}
    for k in range(size.stages_records):
        rng = np.random.default_rng([13, variant, k])
        record, truth = ptpp.synth_ecg(ptpp.SynthSpec(
            fs=FS, duration_s=size.stages_s,
            heart_rate_bpm=float(rng.uniform(60, 90)), noise_snr_db=15.0,
            rr_jitter_frac=0.05, seed=30_000 + 100 * variant + k))
        samples = formats.quantize_uv(record.channels[0].samples)
        stages_in = work / f"stages_in{k:02d}.csv"
        formats.write_csv(stages_in, samples)
        _fingerprint(plan, stages_in)
        # `stages` detects nothing; the quality figures come from both
        # detectors run in this process on the records it dumps.
        for detector, c in counts.items():
            c.append(_match(ptpp.run_detector(detector, samples, FS).r_peaks,
                            truth.beat_samples))
        stages_out = out / f"stages{k:02d}.csv"
        plan.ops.append({
            "id": f"stages-{k:02d}", "kind": "stages", "fs": FS,
            "argv": ["stages", str(stages_in), "-o", str(stages_out)],
            "outputs": {"stages": str(stages_out)},
            "expect_rows": {"samples": len(samples)}})
    plan.quality = {detector: _pool(c) for detector, c in counts.items()}
    return plan


RENDERERS = {
    "holter-2h": render_holter,
    "csv-batch-10min": render_csv_batch,
    "stages-dump-10min": render_stages,
}


def render(ptpp, name: str, work: Path, seed: int, size: Size = FULL) -> Plan:
    (work / "out").mkdir(parents=True, exist_ok=True)
    return RENDERERS[name](ptpp, work, seed % N_VARIANTS, size)
