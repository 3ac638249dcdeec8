"""The mutant generator on a toy source: which edits it makes, and that each
one replaces exactly its own span."""

import ast
import importlib.util
import sys
from pathlib import Path

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
