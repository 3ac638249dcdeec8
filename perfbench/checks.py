"""Output checks applied to every CLI call the benchmark makes.

``observe`` reads what one op wrote; ``failures`` compares that with the
op's own expectations (row counts from an in-process reference run) and, when
given, with the digests and F-score floors frozen at the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

TOLERANCE_MS = 100.0
# compare_metrics.csv carries a wall-clock column; its digest skips it.
TIMED_COLUMN = "exec_time_s"


def match_counts(detected, truth, fs: float,
                 tolerance_ms: float = TOLERANCE_MS) -> tuple[int, int, int]:
    """Greedy in-order one-to-one matching within the tolerance (inclusive);
    returns (tp, fp, fn)."""
    det = np.asarray(detected, dtype=np.int64).tolist()
    ref = np.asarray(truth, dtype=np.int64).tolist()
    tol = int(tolerance_ms * fs / 1000.0 + 0.5)
    i = j = tp = 0
    while i < len(ref) and j < len(det):
        delta = det[j] - ref[i]
        if abs(delta) <= tol:
            tp += 1
            i += 1
            j += 1
        elif delta < 0:
            j += 1
        else:
            i += 1
    return tp, len(det) - tp, len(ref) - tp


def f_score(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def _digest(path: Path, drop_timed_column: bool) -> str:
    digest = hashlib.sha256()
    if drop_timed_column:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        keep = [k for k, name in enumerate(rows[0]) if name != TIMED_COLUMN]
        for row in rows:
            digest.update((",".join(row[k] for k in keep) + "\n").encode())
        return digest.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        lines = sum(block.count(b"\n")
                    for block in iter(lambda: fh.read(1 << 20), b""))
    return lines - 1  # the header


def _pooled_f_scores(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["detector"]: float(row["f_score"])
                for row in csv.DictReader(fh) if row["record"] == "ALL"}


def _detected_samples(path: Path) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [int(row["sample_index"]) for row in csv.DictReader(fh)]


def observe(op: dict, rc, truth_cache: dict) -> dict:
    """What one op produced: exit code, digests, row counts, F-scores."""
    obs: dict = {"rc": rc}
    if rc != 0:
        return obs
    outputs = {name: Path(p) for name, p in op["outputs"].items()}
    missing = [name for name, p in outputs.items() if not p.is_file()]
    if missing:
        obs["missing"] = missing
        return obs
    kind = op["kind"]
    obs["digests"] = {name: _digest(p, kind == "compare" and name == "metrics")
                      for name, p in outputs.items()}
    obs["bytes"] = sum(p.stat().st_size for p in outputs.values())
    if kind == "compare":
        obs["f"] = _pooled_f_scores(outputs["metrics"])
    elif kind == "detect":
        if op["truth"] not in truth_cache:
            truth_cache[op["truth"]] = np.load(op["truth"])
        counts = match_counts(_detected_samples(outputs["detections"]),
                              truth_cache[op["truth"]], op["fs"])
        obs["rows"] = _data_rows(outputs["detections"])
        obs["counts"] = list(counts)
        obs["f"] = {"ptpp": f_score(*counts)}
    elif kind == "stages":
        obs["rows"] = _data_rows(outputs["stages"])
    return obs


def failures(op: dict, obs: dict, frozen: dict | None) -> list[str]:
    """Every check this op fails; an empty list means it passed."""
    if obs["rc"] != 0:
        return [f"exit code {obs['rc']}"]
    if "missing" in obs:
        return [f"missing output(s) {obs['missing']}"]
    found = []
    for what, expected in op.get("expect_rows", {}).items():
        if obs["rows"] != expected:
            found.append(f"{obs['rows']} rows, but the in-process run has "
                         f"{expected} {what}")
    if frozen is not None:
        for name, digest in frozen["digests"].items():
            if obs["digests"].get(name) != digest:
                found.append(f"{name} digest differs from the frozen one")
        for detector, floor in frozen.get("f_floor", {}).items():
            value = obs["f"].get(detector)
            if value is None or value < floor:
                found.append(f"{detector} F-score {value} below floor {floor}")
    return found
