"""Per-layer tracing from outside the program.

``install`` replaces the layer-boundary functions in the namespaces that call
them with wrappers that record spans (name, start, end, parent, op id); no
file under ``src/`` is touched. Spans stay in memory until the run ends.
``layer_metrics`` derives self times, per-sample and per-candidate figures and
the decision counts from them. A span named ``<module>.<function>`` uses the
layer the function belongs to, or, for ``find_candidates``, the detector that
calls it.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (namespace the call is looked up in, attribute, span name)
TARGETS = [
    ("ptpp.cli", "load_csv", "io.load_csv"),
    ("ptpp.cli", "load_wfdb_record", "io.load_wfdb_record"),
    ("ptpp.cli", "load_annotations", "io.load_annotations"),
    ("ptpp.cli", "save_csv", "io.save_csv"),
    ("ptpp.cli", "run_detector", "runner.run_detector"),
    ("ptpp.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("ptpp.cli", "match_beats", "evaluation.match_beats"),
    ("ptpp.cli", "synth_ecg", "evaluation.synth_ecg"),
    ("ptpp.runner", "run_pipeline", "pipeline.run_pipeline"),
    ("ptpp.runner", "detect", "detector.detect"),
    ("ptpp.runner", "detect_pt", "baseline.detect_pt"),
    ("ptpp.runner", "localize_rpeaks", "detector.localize_rpeaks"),
    ("ptpp.pipeline", "derivative", "pipeline.derivative"),
    ("ptpp.pipeline", "square", "pipeline.square"),
    ("ptpp.pipeline", "smooth", "pipeline.smooth"),
    ("ptpp.pipeline", "mwi", "pipeline.mwi"),
    ("ptpp.detector", "find_candidates", "detector.find_candidates"),
    ("ptpp.baseline", "find_candidates", "baseline.find_candidates"),
]
ROOT_SPAN = "cli.main"
# Spans whose allocation peak the memory pass takes with tracemalloc.
MEMORY_SPANS = ("pipeline.run_pipeline", "detector.detect")


def _meta(name: str, args, result) -> dict:
    """Work counts read from a call's arguments and result."""
    if name == "io.load_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "pipeline.run_pipeline":
        return {"samples": len(args[0])}
    if name.endswith(".find_candidates"):
        return {"samples": len(args[0]), "candidates": len(result)}
    if name in ("detector.detect", "baseline.detect_pt"):
        tags = Counter(result.provenance)
        tags.update(f"rejected.{reason}" for _, reason in result.rejected)
        return {"beats": len(result.r_peaks), "tags": dict(tags)}
    return {}


class Tracer:
    """Span recorder. A span is ``[name, start, end, parent, op, meta]``;
    ``parent`` is the index of the enclosing span or None."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.op: str | None = None
        self.memory = memory
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        measure = self.memory and name in MEMORY_SPANS
        if measure:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            peak = tracemalloc.get_traced_memory()[1] if measure else None
            if measure:
                tracemalloc.stop()
        span[5] = _meta(name, args, result)
        if peak is not None:
            span[5]["peak_bytes"] = peak
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def install(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Wrap every target that exists; returns the span names that could not
    be installed and a function that restores the originals."""
    saved, absent = [], []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            absent.append(span)
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return absent, restore


# --------------------------------------------------------------------------
# derivation

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for k, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(k, [])):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass
class Agg:
    """One span name's totals over one repetition of a workload."""

    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    bytes: int = 0
    samples: int = 0
    candidates: int = 0
    beats: int = 0
    peak_bytes: int = 0
    tags: Counter = field(default_factory=Counter)


def aggregate(spans: list[list]) -> dict[str, Agg]:
    selfs = self_times(spans)
    agg: dict[str, Agg] = defaultdict(Agg)
    for span, self_s in zip(spans, selfs):
        a = agg[span[0]]
        a.s += span[2] - span[1]
        a.self_s += self_s
        a.calls += 1
        meta = span[5] or {}
        for key in ("bytes", "samples", "candidates", "beats"):
            setattr(a, key, getattr(a, key) + meta.get(key, 0))
        a.peak_bytes = max(a.peak_bytes, meta.get("peak_bytes", 0))
        a.tags.update(meta.get("tags", {}))
    return agg


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _mb(n: float) -> float:
    return n / 1e6


# (metric, unit, better, span it needs, value from one repetition's aggregate)
# The decision counts are guards for the F-scores: a pure performance change
# leaves every one of them exactly equal.
LAYER_METRICS = [
    ("io.load_wfdb_record.s", "s", "lower", "io.load_wfdb_record",
     lambda A: A["io.load_wfdb_record"].s),
    ("io.load_wfdb_record.calls", "count", "lower", "io.load_wfdb_record",
     lambda A: A["io.load_wfdb_record"].calls),
    ("io.load_annotations.s", "s", "lower", "io.load_annotations",
     lambda A: A["io.load_annotations"].s),
    ("io.load_csv.s", "s", "lower", "io.load_csv", lambda A: A["io.load_csv"].s),
    ("io.load_csv.mb_per_s", "MB/s", "higher", "io.load_csv",
     lambda A: _per(_mb(A["io.load_csv"].bytes), A["io.load_csv"].s)),
    ("io.save_csv.s", "s", "lower", "io.save_csv", lambda A: A["io.save_csv"].s),
    ("pipeline.run_pipeline.self_s", "s", "lower", "pipeline.run_pipeline",
     lambda A: A["pipeline.run_pipeline"].self_s),
    ("pipeline.derivative.s", "s", "lower", "pipeline.derivative",
     lambda A: A["pipeline.derivative"].s),
    ("pipeline.square.s", "s", "lower", "pipeline.square",
     lambda A: A["pipeline.square"].s),
    ("pipeline.smooth.s", "s", "lower", "pipeline.smooth",
     lambda A: A["pipeline.smooth"].s),
    ("pipeline.mwi.s", "s", "lower", "pipeline.mwi", lambda A: A["pipeline.mwi"].s),
    ("pipeline.run_pipeline.ns_per_sample", "ns/sample", "lower",
     "pipeline.run_pipeline",
     lambda A: _per(A["pipeline.run_pipeline"].s,
                    A["pipeline.run_pipeline"].samples, 1e9)),
    ("pipeline.run_pipeline.peak_mb", "MB", "lower", "pipeline.run_pipeline",
     lambda A: _mb(A["pipeline.run_pipeline"].peak_bytes)),
    ("detector.find_candidates.s", "s", "lower", "detector.find_candidates",
     lambda A: A["detector.find_candidates"].s),
    ("detector.find_candidates.ns_per_sample", "ns/sample", "lower",
     "detector.find_candidates",
     lambda A: _per(A["detector.find_candidates"].s,
                    A["detector.find_candidates"].samples, 1e9)),
    ("detector.detect.self_s", "s", "lower", "detector.detect",
     lambda A: A["detector.detect"].self_s),
    ("detector.detect.us_per_candidate", "us/candidate", "lower",
     "detector.detect",
     lambda A: _per(A["detector.detect"].self_s,
                    A["detector.find_candidates"].candidates, 1e6)),
    ("detector.detect.peak_mb", "MB", "lower", "detector.detect",
     lambda A: _mb(A["detector.detect"].peak_bytes)),
    ("detector.localize_rpeaks.s", "s", "lower", "detector.localize_rpeaks",
     lambda A: A["detector.localize_rpeaks"].s),
    ("detector.candidates", "count", "lower", "detector.find_candidates",
     lambda A: A["detector.find_candidates"].candidates),
    ("detector.beats", "count", "higher", "detector.detect",
     lambda A: A["detector.detect"].beats),
    ("detector.accept_ratio", "ratio", "higher", "detector.detect",
     lambda A: _per(A["detector.detect"].tags["threshold1"],
                    A["detector.find_candidates"].candidates)),
    ("detector.beats.searchback_t3", "count", "higher", "detector.detect",
     lambda A: A["detector.detect"].tags["searchback_t3"]),
    ("detector.beats.spike_recovery", "count", "higher", "detector.detect",
     lambda A: A["detector.detect"].tags["spike_recovery"]),
    ("detector.rejected.below_threshold", "count", "lower", "detector.detect",
     lambda A: A["detector.detect"].tags["rejected.below_threshold"]),
    ("detector.rejected.t_wave", "count", "lower", "detector.detect",
     lambda A: A["detector.detect"].tags["rejected.t_wave"]),
    ("detector.rejected.refractory", "count", "lower", "detector.detect",
     lambda A: A["detector.detect"].tags["rejected.refractory"]),
    ("baseline.find_candidates.s", "s", "lower", "baseline.find_candidates",
     lambda A: A["baseline.find_candidates"].s),
    ("baseline.detect_pt.self_s", "s", "lower", "baseline.detect_pt",
     lambda A: A["baseline.detect_pt"].self_s),
    ("baseline.detect_pt.us_per_candidate", "us/candidate", "lower",
     "baseline.detect_pt",
     lambda A: _per(A["baseline.detect_pt"].self_s,
                    A["baseline.find_candidates"].candidates, 1e6)),
    ("baseline.candidates", "count", "lower", "baseline.find_candidates",
     lambda A: A["baseline.find_candidates"].candidates),
    ("baseline.beats.searchback_t2", "count", "higher", "baseline.detect_pt",
     lambda A: A["baseline.detect_pt"].tags["searchback_t2"]),
    ("evaluation.match_beats.s", "s", "lower", "evaluation.match_beats",
     lambda A: A["evaluation.match_beats"].s),
    ("evaluation.synth_ecg.s", "s", "lower", "evaluation.synth_ecg",
     lambda A: A["evaluation.synth_ecg"].s),
    ("runner.run_detector.s", "s", "lower", "runner.run_detector",
     lambda A: A["runner.run_detector"].s),
    ("runner.run_detector.self_s", "s", "lower", "runner.run_detector",
     lambda A: A["runner.run_detector"].self_s),
    ("cli.main.s", "s", "lower", ROOT_SPAN, lambda A: A[ROOT_SPAN].s),
    ("cli.main.self_s", "s", "lower", ROOT_SPAN, lambda A: A[ROOT_SPAN].self_s),
]
MEMORY_METRICS = {"pipeline.run_pipeline.peak_mb", "detector.detect.peak_mb"}
# Filled in from the run itself rather than from spans.
RUN_METRICS = [
    ("cli.output_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.missing_spans", "count", "lower"),
]


def fired(spans: list[list]) -> set[str]:
    return {span[0] for span in spans}


def layer_metrics(reps: list[list[list]], memory: list[list],
                  expected: set[str] | None) -> dict[str, float | None]:
    """Median over the traced repetitions of every span-derived metric.

    A metric whose span never fired reads 0 when the workload does not call
    it by design, and None (missing) when the span is in ``expected``, the
    set that fired on this workload at the seed commit.
    """
    seen = set().union(*(fired(r) for r in reps)) if reps else set()
    aggs = [aggregate(r) for r in reps]
    memory_agg = aggregate(memory)
    out: dict[str, float | None] = {}
    for metric, _unit, _better, span, value in LAYER_METRICS:
        if span not in seen:
            out[metric] = None if expected and span in expected else 0
        elif metric in MEMORY_METRICS:
            out[metric] = value(memory_agg)
        else:
            out[metric] = statistics.median(value(a) for a in aggs)
    main_s = out["cli.main.s"]
    out["trace.coverage"] = (1.0 - out["cli.main.self_s"] / main_s
                             if main_s else None)
    out["trace.missing_spans"] = len(expected - seen) if expected else 0
    return out
