"""A tiny size of each workload runs end to end, traced and untraced, and
its checks catch a changed output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import freeze
import run
import workloads

SMOKE = dict(size=workloads.SMOKE, n_setup_pairs=1)


@pytest.mark.parametrize("workload", sorted(workloads.RENDERERS))
def test_smoke_run_checks_every_op(workload):
    first = run.execute(workload, 3, 0.0, False, **SMOKE)
    frozen = freeze.entry(workload, first)
    n_ops = len(first.plan.ops)
    assert first.result["attempted"] == n_ops

    again = run.execute(workload, 3, 0.0, False, frozen_ops=frozen["ops"],
                        **SMOKE)
    assert again.result["failed"] == 0, again.result["problems"]
    scores = run.f_scores(workload, again)
    assert run.quality_problems(scores, again.plan.inputs, frozen) == []
    ref = {"setup_s": 1.0, "ops": {op["id"]: 1.0 for op in again.plan.ops}}
    metrics = run.end_to_end_metrics(again, scores, ref)
    assert [m for m, _, _ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for name, value in metrics.items()
               if name != "peak_rss_mb")
    # Every op ran paired with the ruler.
    assert set(again.result["pairs"]) == {op["id"] for op in again.plan.ops}
    assert all(len(v) >= 1 for v in again.result["pairs"].values())

    broken = {op: dict(exp, digests={k: "0" * 64 for k in exp["digests"]})
              for op, exp in frozen["ops"].items()}
    bad = run.execute(workload, 3, 0.0, False, frozen_ops=broken, **SMOKE)
    assert bad.result["failed"] == n_ops


@pytest.mark.parametrize("workload", sorted(workloads.RENDERERS))
def test_smoke_traced_run(workload):
    outcome = run.execute(workload, 3, 1.0, True, **SMOKE)
    passes = outcome.result["rep_spans"]
    assert len(passes) > 1
    for spans_of_pass in passes:
        for k, (_, start, end, parent, _op, _meta) in enumerate(spans_of_pass):
            if parent is not None:
                assert parent < k
                assert spans_of_pass[parent][1] <= start <= end \
                    <= spans_of_pass[parent][2]
    values = run.per_layer_metrics(outcome, set())
    assert values["cli.main.s"] > 0
    assert 0 < values["trace.coverage"] <= 1
    assert values["trace.missing_spans"] == 0
    assert outcome.result["absent_targets"] == []


def test_seeds_pick_variants_and_inputs_are_reproducible(tmp_path):
    ptpp = run.load_ptpp()
    a = workloads.render(ptpp, "stages-dump-10min", tmp_path / "a", 5,
                         workloads.SMOKE)
    b = workloads.render(ptpp, "stages-dump-10min", tmp_path / "b",
                         5 + workloads.N_VARIANTS, workloads.SMOKE)
    c = workloads.render(ptpp, "stages-dump-10min", tmp_path / "c", 6,
                         workloads.SMOKE)
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs


def test_fails_without_sources(tmp_path):
    """Run from a directory holding only the benchmark: error, no result."""
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "holter-2h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_lists_what_run_reports():
    import spans
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == \
        [m for m, _, _ in run.END_TO_END]
    per_layer = [m for m, *_ in spans.LAYER_METRICS] + \
        [m for m, _, _ in spans.RUN_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.RENDERERS)
    unit = run.units()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == unit[metric["name"]]


def test_ratio_is_the_median_of_pair_ratios():
    assert run.ratio([(2.0, 4.0), (3.0, 6.0), (9.0, 1.0)]) == 0.5


def test_ruler_matches_its_frozen_fingerprint():
    assert run.ruler_digest() == run.load_frozen()["ruler_sha256"]


def test_crash_inside_a_call_fails_that_op(monkeypatch):
    import ptpp.cli
    import worker
    monkeypatch.setattr(ptpp.cli, "main", lambda argv: 1 // 0)
    runner = worker.Runner({"ops": [{"id": "a", "kind": "synth", "argv": [],
                                     "outputs": {}}], "frozen_ops": None})
    passes = runner.reps(0.0, 2)
    assert len(passes) == 2
    assert (runner.attempted, runner.failed) == (2, 2)
    assert "ZeroDivisionError" in runner.problems[0]
