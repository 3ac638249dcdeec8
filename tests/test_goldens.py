"""Decision goldens: both detectors reproduce, exactly, the detections,
provenance tags, rejects, localized peaks and threshold trajectories frozen
in ``tests/goldens/decisions.json`` by ``tests/goldens/make_goldens.py``."""

import json

import pytest

from goldens.make_goldens import GOLDEN_PATH, run_case

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
