"""The mutant generator on a toy source: which edits it makes, and that each
one replaces exactly its own span; and the bookkeeping around a run: picking
mutants by line, saving and merging verdicts, rendering the report."""

import argparse
import ast
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

# Loaded by file path under its own name: perfbench/ holds a run.py too,
# and a bare ``import run`` takes whichever directory is first on sys.path.
# The module goes into sys.modules before it runs, as dataclasses need.
_SPEC = importlib.util.spec_from_file_location(
    "mutation_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = run
_SPEC.loader.exec_module(run)

TOY = '''"""Toy module: docstrings, imports and f-strings get no mutant."""
import math

LIMIT = 3


def f(x, flag=True):
    """Docstring."""
    if x < LIMIT and not flag:
        return x[1:x.n]
    elif x is None:
        raise ValueError(f"bad {x}")
    while x > 0.5:
        x -= 1
    return x
'''

EXPECTED = [
    ("<module>", 4, "plus1", "3", "(4)"),
    ("<module>", 4, "plus1", "3", "(2)"),
    ("f", 7, "bool", "True", "False"),
    ("f", 9, "delete", "if x < LIMIT and not flag: return x[1:x.n] elif x is "
     "None: raise ValueError(f\"bad {x}\")", "pass"),
    ("f", 9, "bool", "x < LIMIT and not flag", "(x < LIMIT or not flag)"),
    ("f", 9, "cond", "x < LIMIT and not flag", "True"),
    ("f", 9, "cond", "x < LIMIT and not flag", "False"),
    ("f", 9, "compare", "x < LIMIT", "(x <= LIMIT)"),
    ("f", 9, "compare", "x < LIMIT", "(x >= LIMIT)"),
    ("f", 9, "bool", "not flag", "(flag)"),
    ("f", 10, "delete", "return x[1:x.n]", "pass"),
    ("f", 10, "plus1", "1", "(2)"),
    ("f", 10, "plus1", "1", "(0)"),
    ("f", 10, "plus1", "x.n", "(x.n + 1)"),
    ("f", 10, "plus1", "x.n", "(x.n - 1)"),
    ("f", 11, "compare", "x is None", "(x is not None)"),
    ("f", 11, "cond", "x is None", "True"),
    ("f", 11, "cond", "x is None", "False"),
    ("f", 12, "delete", "raise ValueError(f\"bad {x}\")", "pass"),
    ("f", 13, "delete", "while x > 0.5: x -= 1", "pass"),
    ("f", 13, "compare", "x > 0.5", "(x >= 0.5)"),
    ("f", 13, "compare", "x > 0.5", "(x <= 0.5)"),
    ("f", 13, "cond", "x > 0.5", "True"),
    ("f", 13, "cond", "x > 0.5", "False"),
    ("f", 13, "nudge", "0.5", "(0.6)"),
    ("f", 13, "nudge", "0.5", "(0.4)"),
    ("f", 14, "delete", "x -= 1", "pass"),
    ("f", 14, "plus1", "1", "(2)"),
    ("f", 14, "plus1", "1", "(0)"),
    ("f", 15, "delete", "return x", "pass"),
]


def test_toy_mutants():
    found = [(m.function, m.line, m.op, run._one_line(m.before), m.after)
             for m in run.generate(TOY, "toy.py")]
    assert found == EXPECTED


def test_keys_are_unique_and_number_repeats():
    keys = [m.key for m in run.generate(TOY, "toy.py")]
    assert len(set(keys)) == len(keys)
    assert "toy.py:f:1 -> (2)" in keys and "toy.py:f:1 -> (2) #2" in keys


def test_each_mutant_edits_only_its_span():
    source = TOY.encode()
    for m in run.generate(TOY, "toy.py"):
        mutated = m.apply(source)
        ast.parse(mutated)
        assert mutated[:m.start] == source[:m.start]
        assert mutated[len(mutated) - (len(source) - m.end):] \
            == source[m.end:]
        assert source[m.start:m.end].decode() == m.before


def test_offsets_count_bytes_not_characters():
    # The multi-byte "µ" ahead of the constant on the same line.
    (m,) = [m for m in run.generate('y = "µs" if a else 1\n', "u.py")
            if m.after == "(2)"]
    assert m.apply('y = "µs" if a else 1\n'.encode()).decode() \
        == 'y = "µs" if a else (2)\n'


def test_selection_parses_files_and_line_ranges():
    assert run.selection("detector.py") == ("detector.py", 1, math.inf)
    assert run.selection("detector.py:12") == ("detector.py", 12, 12)
    assert run.selection("pipeline.py:3-40") == ("pipeline.py", 3, 40)
    for bad in ("toy.py", "detector.py:", "detector.py:a-3",
                "detector.py:0-3", "detector.py:9-3", "detector.py:3-"):
        with pytest.raises(argparse.ArgumentTypeError):
            run.selection(bad)


def test_selection_picks_mutants_by_first_line():
    mutants = run.generate(TOY, "toy.py")
    chosen = [m for m in mutants if run.is_selected(m, [("toy.py", 10, 11)])]
    assert {m.line for m in chosen} == {10, 11}
    assert len(chosen) == 8
    # The if/elif statement starting at line 9 spans 10-12 but is not chosen.
    assert not [m for m in mutants
                if run.is_selected(m, [("other.py", 1, math.inf)])]


def _fake(mutants, verdict):
    return [(m, verdict) for m in mutants]


def test_partial_runs_override_the_full_run(tmp_path):
    mutants = run.generate(TOY, "toy.py")
    run.save_results(tmp_path, _fake(mutants[:20], "subset:t"), [])
    run.save_results(tmp_path, _fake(mutants[5:8], "survived"),
                     [("toy.py", 10, 10)])
    run.save_results(tmp_path, _fake(mutants[7:9], "tier1:u"),
                     [("toy.py", 11, 11)])
    results, select = run.merged(mutants, tmp_path)
    assert select == ["toy.py:10", "toy.py:11"]
    assert [v for _, v in results] == (
        ["subset:t"] * 5 + ["survived"] * 2 + ["tier1:u"] * 2
        + ["subset:t"] * 11 + ["not run"] * (len(mutants) - 20))
    # A full run replaces everything saved before it.
    run.save_results(tmp_path, _fake(mutants, "survived"), [])
    assert not (tmp_path / "partial.json").exists()
    results, select = run.merged(mutants, tmp_path)
    assert select == [] and {v for _, v in results} == {"survived"}


def test_keys_of_removed_mutants_are_dropped(tmp_path):
    old = run.generate(TOY, "toy.py")
    run.save_results(tmp_path, _fake(old, "survived"), [])
    new = run.generate(TOY.replace("    while x > 0.5:\n        x -= 1\n", ""),
                       "toy.py")
    results, _ = run.merged(new, tmp_path)
    assert [m.key for m, _ in results] == [m.key for m in new]
    assert len(new) < len(old)


def test_report_counts_and_lists(tmp_path):
    mutants = run.generate(TOY, "toy.py")
    results = ([(mutants[0], "subset:t"), (mutants[1], "tier1:tests/a.py::b"),
                (mutants[2], "survived"), (mutants[3], "survived"),
                (mutants[4], "not run")])
    report = run._report(results, {mutants[2].key: "equivalent: why"},
                         ["toy.py:4-7"])
    assert "the partial runs of `toy.py:4-7` override a full run's." in report
    assert "- Mutants: 4 (bool 1, delete 1, plus1 2)." in report
    assert "- Kill rate: 2/4 = 50.0%." in report
    assert "- Not run (in no saved run): 1." in report
    rows = [line for line in report.splitlines() if line.startswith("| `")]
    assert [row.rsplit("|", 2)[1].strip() for row in rows] == [
        "killed by `tests/a.py::b`", "equivalent: why",
        "survives; no verdict yet"]


def test_render_runs_nothing(tmp_path, monkeypatch):
    mutants = [m for f in run.FILES for m in run.generate(
        (run.ROOT / "src" / "ptpp" / f).read_text(), f)]
    run.save_results(tmp_path, _fake(mutants, "subset:t"), [])
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "_run", None)  # calling it would fail
    assert run.main(["--render"]) == 0
    report = (tmp_path / "SURVIVORS.md").read_text()
    assert f"- Kill rate: {len(mutants)}/{len(mutants)} = 100.0%." in report
    with pytest.raises(SystemExit):
        run.main(["--render", "--select", "detector.py"])


def test_copies_load_a_profile_without_shrinking(tmp_path):
    copy = run._copy_checkout(tmp_path)
    probe = ("import _no_shrink, hypothesis; "
             "print(sorted(p.name for p in hypothesis.settings.default.phases))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=copy,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["['explicit',", "'generate',", "'reuse']"]
    assert run.PYTEST[-2:] == ["-p", "_no_shrink"]
