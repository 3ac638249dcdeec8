"""The benchmark's traced run keeps every layer span it was frozen with.

``perfbench/spans.py`` traces a run by wrapping named functions in the
modules that call them (``ptpp.pipeline.square``, ``ptpp.runner.detect``,
...). A stage reached under another name stops its span from firing, and
the benchmark then reports that span's metrics as missing. Here each
workload is rendered at its smoke size and its CLI calls run in-process
under the benchmark's own tracer, and every span in the workload's frozen
``spans`` list must fire. The benchmark's files are only read: its modules
are loaded by path under private names, and its frozen seed copy of
``ptpp`` (``perfbench/ruler``) is not imported.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import ptpp
import ptpp.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, **imports):
    """``perfbench/<name>.py`` as a private module; ``imports`` are the
    benchmark modules it imports by bare name, seen only while it loads."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module, **imports}):
        spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads", checks=_load("checks"),
                  formats=_load("formats"))
FROZEN = json.loads((PERFBENCH / "frozen.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FROZEN["workloads"]))
def test_every_frozen_span_fires(name, tmp_path, monkeypatch):
    plan = workloads.render(ptpp, name, tmp_path, seed=3,
                            size=workloads.SMOKE)
    monkeypatch.chdir(tmp_path)  # the ops' outputs are relative paths
    tracer = spans.Tracer()
    absent, restore = spans.install(tracer)
    try:
        codes = [tracer.call(spans.ROOT_SPAN, ptpp.cli.main, op["argv"])
                 for op in plan.ops]
    finally:
        restore()
    assert codes == [0] * len(plan.ops)
    assert absent == []
    frozen = set(FROZEN["workloads"][name]["spans"])
    assert frozen - spans.fired(tracer.spans) == set()
