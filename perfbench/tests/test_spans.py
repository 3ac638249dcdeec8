"""Self-time and per-layer arithmetic on a hand-built span tree."""

import pytest

import spans


def _tree():
    # cli.main [0, 10]
    #   runner.run_detector [1, 7]
    #     pipeline.run_pipeline [1, 3]
    #       pipeline.mwi [2, 2.5]
    #     detector.detect [3, 6]
    #       detector.find_candidates [3, 4]
    #   io.load_csv [8, 9]
    return [
        ["cli.main", 0.0, 10.0, None, "0/a", {}],
        ["runner.run_detector", 1.0, 7.0, 0, "0/a", {}],
        ["pipeline.run_pipeline", 1.0, 3.0, 1, "0/a", {"samples": 1000}],
        ["pipeline.mwi", 2.0, 2.5, 2, "0/a", {}],
        ["detector.detect", 3.0, 6.0, 1, "0/a",
         {"beats": 3, "tags": {"threshold1": 2, "searchback_t3": 1,
                               "rejected.t_wave": 4}}],
        ["detector.find_candidates", 3.0, 4.0, 4, "0/a",
         {"samples": 1000, "candidates": 8}],
        ["io.load_csv", 8.0, 9.0, 0, "0/a", {"bytes": 2_000_000}],
    ]


def test_self_times():
    assert spans.self_times(_tree()) == pytest.approx(
        [10 - 6 - 1, 6 - 2 - 3, 2 - 0.5, 0.5, 3 - 1, 1, 1])


def test_self_time_counts_overlapping_children_once():
    tree = [["p", 0.0, 4.0, None, "x", {}],
            ["c", 1.0, 3.0, 0, "x", {}],
            ["c", 2.0, 5.0, 0, "x", {}]]  # overlaps and runs past its parent
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_from_one_rep():
    tree = _tree()
    expected = spans.fired(tree)
    m = spans.layer_metrics([tree], [], expected)
    assert m["cli.main.s"] == pytest.approx(10.0)
    assert m["cli.main.self_s"] == pytest.approx(3.0)
    assert m["trace.coverage"] == pytest.approx(0.7)
    assert m["runner.run_detector.self_s"] == pytest.approx(1.0)
    assert m["pipeline.run_pipeline.self_s"] == pytest.approx(1.5)
    assert m["pipeline.run_pipeline.ns_per_sample"] == pytest.approx(2e6)
    assert m["detector.detect.self_s"] == pytest.approx(2.0)
    assert m["detector.detect.us_per_candidate"] == pytest.approx(2.0 / 8 * 1e6)
    assert m["detector.find_candidates.ns_per_sample"] == pytest.approx(1e6)
    assert m["detector.candidates"] == 8
    assert m["detector.beats"] == 3
    assert m["detector.accept_ratio"] == pytest.approx(2 / 8)
    assert m["detector.beats.searchback_t3"] == 1
    assert m["detector.rejected.t_wave"] == 4
    assert m["io.load_csv.mb_per_s"] == pytest.approx(2.0)
    assert m["trace.missing_spans"] == 0


def test_uncalled_span_reads_zero_but_expected_one_is_missing():
    tree = _tree()
    m = spans.layer_metrics([tree], [], spans.fired(tree) | {"baseline.detect_pt"})
    assert m["io.save_csv.s"] == 0  # never called on this workload
    assert m["baseline.detect_pt.self_s"] is None  # fired before, not now
    assert m["baseline.detect_pt.us_per_candidate"] is None
    assert m["trace.missing_spans"] == 1


def test_median_over_reps_and_memory_pass():
    fast = _tree()
    slow = [[s[0], s[1] * 2, s[2] * 2, *s[3:]] for s in _tree()]
    third = [[s[0], s[1] * 3, s[2] * 3, *s[3:]] for s in _tree()]
    memory = [["detector.detect", 0.0, 1.0, None, "m", {"peak_bytes": 5_000_000}]]
    m = spans.layer_metrics([fast, third, slow], memory, None)
    assert m["cli.main.s"] == pytest.approx(20.0)
    assert m["detector.detect.peak_mb"] == pytest.approx(5.0)
    assert m["pipeline.run_pipeline.peak_mb"] == 0


def test_tracer_records_nesting_and_meta():
    tracer = spans.Tracer()

    def inner(xs):
        return xs[:2]

    def outer(xs):
        return tracer.call("detector.find_candidates", inner, xs)

    tracer.op = "0/op"
    assert tracer.call("cli.main", outer, [1, 2, 3]) == [1, 2]
    (main, child) = tracer.spans
    assert main[0] == "cli.main" and main[3] is None
    assert child[3] == 0 and child[4] == "0/op"
    assert child[5] == {"samples": 3, "candidates": 2}
    assert main[1] <= child[1] <= child[2] <= main[2]
