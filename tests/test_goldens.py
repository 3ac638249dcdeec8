"""Decision goldens: both detectors reproduce, exactly, the detections,
provenance tags, rejects, localized peaks and threshold trajectories frozen
in ``tests/goldens/decisions.json`` by ``tests/goldens/make_goldens.py``.
The decisions do not depend on how many items the loops read at once."""

import json
from unittest import mock

import pytest

import ptpp
from goldens.make_goldens import GOLDEN_PATH, run_case, trace_digest

GOLDENS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = [pytest.param(det, case["spec"], case["detectors"][det], golden,
                      id=f"{case['name']}-{det}")
         for case in GOLDENS["cases"]
         for det, golden in case["golden"].items()]


def test_corpus_covers_both_detectors():
    assert GOLDENS["generated_at_commit"]
    assert {case.values[0] for case in CASES} == {"ptpp", "pt"}
    assert len(GOLDENS["cases"]) >= 25


@pytest.mark.parametrize("detector,spec,overrides,golden", CASES)
def test_decisions_match_golden(detector, spec, overrides, golden):
    assert run_case(spec, detector, overrides) == golden


@pytest.mark.parametrize("detector,spec,overrides",
                         [case.values[:3] for case in CASES],
                         ids=[case.id for case in CASES])
def test_decisions_do_not_depend_on_the_block_size(detector, spec, overrides):
    record, _ = ptpp.synth_ecg(ptpp.SynthSpec.from_dict(dict(spec)))
    fs = record.sampling_rate_hz
    stages = ptpp.run_pipeline(record.channels[0].samples, fs,
                               ptpp.default_pipeline_config(detector))

    def decide(block: int):
        trace: list = []
        with mock.patch.object(ptpp.detector, "_BLOCK_ITEMS", block):
            if detector == "ptpp":
                result = ptpp.detect(stages, fs,
                                     ptpp.DetectorConfig(**overrides), trace)
            else:
                result = ptpp.detect_pt(stages, fs,
                                        ptpp.PtConfig(**overrides), trace)
        return (result.r_peaks.tolist(), result.r_peaks.dtype,
                result.provenance, result.rejected, trace_digest(trace))

    default = decide(ptpp.detector._BLOCK_ITEMS)
    for block in (1, 2, 3, 7):
        assert decide(block) == default, block
