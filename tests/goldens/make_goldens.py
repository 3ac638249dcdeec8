"""Record the decision goldens that ``tests/test_goldens.py`` compares against.

For every case, each detector runs on the rendered synthetic record with its
default pipeline. The golden keeps the decision output (integrated-signal
``r_peaks``, ``provenance``, ``rejected``), the localized raw-trace peaks, and
a SHA-256 over the ``repr`` of every trace entry, which pins every threshold
value the decision loop passed through.

Regenerate only on purpose, from a commit whose decisions are trusted::

    PYTHONPATH=src python tests/goldens/make_goldens.py

The JSON records the commit it was generated at (with ``+dirty`` when
``src/`` had uncommitted edits) and the numpy/scipy versions, since the
filter's floating-point output depends on them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import ptpp

GOLDEN_PATH = Path(__file__).with_name("decisions.json")
REPO_ROOT = Path(__file__).resolve().parents[2]

# The five scenario recipes of tests/helpers.py, frozen here as plain values
# so the goldens do not move when the helpers do.
SCENARIO_SPECS = {
    "clean": dict(duration_s=60.0),
    "low_amp": dict(duration_s=90.0, qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.45],
                    t_wave_amplitude=1.4, noise_snr_db=20.0, seed=11),
    "tall_t": dict(duration_s=60.0, heart_rate_bpm=50.0, t_wave_amplitude=1.3,
                   t_wave_delay_ms=300.0, t_wave_width_ms=135.0, seed=12),
    "dropout": dict(duration_s=90.0,
                    qrs_amplitude_mv=[[0.0, 1.0], [30.0, 0.3], [60.0, 1.0]],
                    noise_snr_db=20.0, seed=13),
    "spike": dict(duration_s=120.0, spike=[1.9, 10.0], noise_snr_db=20.0,
                  seed=14),
}
# Shrunk beats below threshold1 but above threshold2, which the classic
# detector's search-back finds and Pan-Tompkins++ recovers. In the second, a
# shrunk beat follows a missing one, so the classic search-back takes the
# candidate itself and the long RR halves its thresholds.
SHRUNK_BEAT_SPECS = {
    "shrunk_8th": dict(duration_s=60.0, qrs_amplitude_mv=[1.0] * 7 + [0.45],
                       noise_snr_db=30.0, seed=31),
    "pause_then_shrunk": dict(duration_s=60.0, heart_rate_bpm=70.0,
                              qrs_amplitude_mv=[1.0] * 6 + [0.0, 0.45],
                              noise_snr_db=25.0, seed=33),
}
N_RANDOM = 20
RANDOM_SEED = 20221106
# A config under which localization merges detections (min_sep below twice
# the ±75 ms snap window); it exercises the collapse path of the localizer.
COLLAPSE_CASE = ("collapse_ptpp", dict(duration_s=60.0, noise_snr_db=5.0),
                 {"min_peak_separation_ms": 60.0, "post_peak_blank_ms": 60.0})


def random_specs() -> dict[str, dict]:
    g = np.random.default_rng(RANDOM_SEED)
    specs = {}
    for k in range(N_RANDOM):
        specs[f"random_{k:02d}"] = dict(
            duration_s=round(float(g.uniform(8.0, 60.0)), 3),
            heart_rate_bpm=round(float(g.uniform(45.0, 130.0)), 3),
            rr_jitter_frac=round(float(g.uniform(0.0, 0.2)), 4),
            qrs_amplitude_mv=round(float(g.uniform(0.3, 3.0)), 4),
            noise_snr_db=(round(float(g.uniform(5.0, 30.0)), 3)
                          if g.random() < 0.75 else None),
            seed=int(g.integers(0, 2 ** 31)),
        )
    return specs


def build_cases() -> list[dict]:
    """Every case: a name, a SynthSpec dict and per-detector config fields."""
    cases = [{"name": name, "spec": spec, "detectors": {"ptpp": {}, "pt": {}}}
             for name, spec in {**SCENARIO_SPECS, **SHRUNK_BEAT_SPECS,
                                **random_specs()}.items()]
    name, spec, overrides = COLLAPSE_CASE
    cases.append({"name": name, "spec": spec,
                  "detectors": {"ptpp": overrides}})
    return cases


def trace_digest(trace: list) -> str:
    h = hashlib.sha256()
    for entry in trace:
        h.update(repr(entry).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def group_rejected(rejected: list[tuple[int, str]]) -> dict[str, list[int]]:
    """Candidate indices per reject reason. Rejects arrive in candidate
    order, so :func:`ungroup_rejected` restores the list exactly."""
    grouped: dict[str, list[int]] = {}
    for i, reason in rejected:
        grouped.setdefault(reason, []).append(int(i))
    if ungroup_rejected(grouped) != [(int(i), r) for i, r in rejected]:
        raise ValueError("rejects are not in candidate order")
    return grouped


def ungroup_rejected(grouped: dict[str, list[int]]) -> list[tuple[int, str]]:
    return sorted((i, reason) for reason, idxs in grouped.items()
                  for i in idxs)


def run_case(spec: dict, detector: str, overrides: dict) -> dict:
    """Decision outputs of one detector on one spec, in golden form."""
    record, _ = ptpp.synth_ecg(ptpp.SynthSpec.from_dict(dict(spec)))
    samples = record.channels[0].samples
    fs = record.sampling_rate_hz
    stages = ptpp.run_pipeline(samples, fs,
                               ptpp.default_pipeline_config(detector))
    trace: list = []
    if detector == "ptpp":
        result = ptpp.detect(stages, fs, ptpp.DetectorConfig(**overrides),
                             trace=trace)
    else:
        result = ptpp.detect_pt(stages, fs, ptpp.PtConfig(**overrides),
                                trace=trace)
    localized = ptpp.localize_rpeaks(samples, result,
                                     stages.stage_delays_samples, fs)
    return {
        "r_peaks": [int(i) for i in result.r_peaks],
        "provenance": list(result.provenance),
        "rejected": group_rejected(result.rejected),
        "localized": [int(i) for i in localized],
        "trace_sha256": trace_digest(trace),
    }


def _commit() -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    return head + ("+dirty" if git("status", "--porcelain", "src") else "")


def main() -> int:
    cases = build_cases()
    for case in cases:
        case["golden"] = {det: run_case(case["spec"], det, overrides)
                          for det, overrides in case["detectors"].items()}
    payload = {
        "generated_at_commit": _commit(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cases": cases,
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"{len(cases)} cases, {len(text)} bytes -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
