"""Mutation testing of the decision layer and the filter pipeline.

Usage, from the root of a checkout::

    python mutation/run.py [--jobs 2]

Each mutant is one small edit to one of ``src/ptpp/detector.py``,
``baseline.py`` or ``pipeline.py``:

* ``compare``: a comparison operator moved across its boundary or negated
  (``<`` to ``<=`` or ``>=``, ``==`` to ``!=``, ``is`` to ``is not``, ...);
* ``plus1``: an integer constant or a slice bound plus or minus one;
* ``nudge``: a float constant moved by a tenth of max(|c|, 1);
* ``bool``: ``True``/``False`` swapped, ``not`` dropped, ``and``/``or``
  swapped;
* ``delete``: a statement inside a function replaced by ``pass``;
* ``cond``: an ``if``, ``elif`` or ``while`` test replaced by ``True`` or
  ``False``.

Every mutant runs in a temporary copy of the checkout, never in ``src/``
itself, against the fast subset ``FAST_TESTS`` with ``-x``; a mutant that
survives it is run against the whole Tier-1 suite. The result is written to
``mutation/SURVIVORS.md``: the kill rate, and for each subset survivor its
site, the edit and a verdict, which is either the full-suite test that killed
it or, for a mutant nothing kills, the reason given for it in
``mutation/verdicts.json`` (keyed by the mutant's ``key``).

Only the standard library is used; pytest, numpy and scipy are needed by the
tests the mutants run against.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import queue
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FILES = ("detector.py", "baseline.py", "pipeline.py")
FAST_TESTS = ["tests/test_detector.py", "tests/test_baseline.py",
              "tests/test_pipeline.py", "tests/test_goldens.py",
              "tests/test_acceptance.py"]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
TIMEOUT_S = 300
MEMORY_LIMIT_BYTES = 4 << 30  # address space of one test run

_COMPARE_SWAPS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}


@dataclass(frozen=True)
class Mutant:
    file: str
    function: str  # qualified name of the enclosing def, or "<module>"
    line: int
    op: str
    before: str  # the source segment replaced
    after: str
    start: int  # byte offsets of the segment in the UTF-8 source
    end: int
    key: str = ""

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.after.encode() + source[self.end:]


class _Collector(ast.NodeVisitor):
    def __init__(self, source: bytes, file: str):
        self.source = source
        self.file = file
        offsets = [0]
        for line in source.splitlines(keepends=True):
            offsets.append(offsets[-1] + len(line))
        self.line_offsets = offsets
        self.scope: list[str] = []
        self.found: list[Mutant] = []

    def _span(self, node: ast.AST) -> tuple[int, int]:
        return (self.line_offsets[node.lineno - 1] + node.col_offset,
                self.line_offsets[node.end_lineno - 1] + node.end_col_offset)

    def add(self, node: ast.AST, op: str, after: str) -> None:
        start, end = self._span(node)
        before = self.source[start:end].decode()
        self.found.append(Mutant(
            self.file, ".".join(self.scope) or "<module>", node.lineno, op,
            before, after, start, end))

    def add_expr(self, node: ast.expr, op: str, new: ast.expr) -> None:
        self.add(node, op, f"({ast.unparse(new)})")

    # Scopes, and the parts of them no mutant touches.
    def _visit_def(self, node) -> None:
        self.scope.append(node.name)
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        self._visit_body(node.body, in_function=True)
        self.scope.pop()

    visit_FunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self._visit_body(node.body, in_function=False)
        self.scope.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._visit_body(node.body, in_function=False)

    def _visit_body(self, body: list[ast.stmt], in_function: bool) -> None:
        for k, stmt in enumerate(body):
            if k == 0 and _is_docstring(stmt):
                continue
            if in_function and not isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef, ast.Pass)):
                self.add(stmt, "delete", "pass")
            self.visit(stmt)

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_JoinedStr = visit_Import

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_arg(self, node: ast.arg) -> None:
        pass  # annotations

    # Compound statements: their bodies go through _visit_body.
    def visit_If(self, node: ast.If) -> None:
        for const in (True, False):
            self.add(node.test, "cond", repr(const))
        self.visit(node.test)
        self._visit_body(node.body, in_function=bool(self.scope))
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If) \
                and self._starts_with(node.orelse[0], b"elif"):
            self.visit_If(node.orelse[0])  # an elif is never deleted whole
        else:
            self._visit_body(node.orelse, in_function=bool(self.scope))

    def visit_While(self, node: ast.While) -> None:
        for const in (True, False):
            self.add(node.test, "cond", repr(const))
        self.visit(node.test)
        self._visit_body(node.body, in_function=True)
        self._visit_body(node.orelse, in_function=True)

    def _visit_block(self, node, *heads: ast.AST) -> None:
        for head in heads:
            self.visit(head)
        for name in ("body", "orelse", "finalbody"):
            self._visit_body(getattr(node, name, []), in_function=True)
        for handler in getattr(node, "handlers", []):
            if handler.type is not None:
                self.visit(handler.type)
            self._visit_body(handler.body, in_function=True)

    def visit_For(self, node: ast.For) -> None:
        self._visit_block(node, node.iter)

    def visit_With(self, node: ast.With) -> None:
        self._visit_block(node, *node.items)

    def visit_Try(self, node: ast.Try) -> None:
        self._visit_block(node)

    def _starts_with(self, node: ast.AST, prefix: bytes) -> bool:
        return self.source[self._span(node)[0]:].startswith(prefix)

    # Expressions.
    def visit_Compare(self, node: ast.Compare) -> None:
        for k, op in enumerate(node.ops):
            for new_op in _COMPARE_SWAPS.get(type(op), ()):
                ops = list(node.ops)
                ops[k] = new_op()
                self.add_expr(node, "compare", ast.Compare(
                    node.left, ops, node.comparators))
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        self.add_expr(node, "bool", ast.BoolOp(other, node.values))
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.Not):
            self.add_expr(node, "bool", node.operand)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        value = node.value
        if isinstance(value, bool):
            self.add(node, "bool", repr(not value))
        elif isinstance(value, int):
            for new in (value + 1, value - 1):
                self.add_expr(node, "plus1", ast.Constant(new))
        elif isinstance(value, float) and math.isfinite(value):
            delta = 0.1 * max(abs(value), 1.0)
            for new in (value + delta, value - delta):
                self.add_expr(node, "nudge", ast.Constant(round(new, 12)))

    def visit_Slice(self, node: ast.Slice) -> None:
        for bound in (node.lower, node.upper, node.step):
            if bound is None or isinstance(bound, ast.Constant):
                continue  # a constant bound gets plus1 as a constant
            for sign in (ast.Add(), ast.Sub()):
                self.add_expr(bound, "plus1",
                              ast.BinOp(bound, sign, ast.Constant(1)))
        self.generic_visit(node)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def generate(source: str, file: str) -> list[Mutant]:
    """Every mutant of ``source``, in source order; each has a unique key
    ``file:function:before -> after`` (``#n`` numbers a repeated edit)."""
    collector = _Collector(source.encode(), file)
    collector.visit(ast.parse(source))
    found = sorted(collector.found, key=lambda m: (m.start, -m.end, m.op))
    seen: Counter[str] = Counter()
    out = []
    for m in found:
        key = f"{m.file}:{m.function}:{_one_line(m.before)} -> {m.after}"
        seen[key] += 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        out.append(replace(m, key=key))
    return out


def _one_line(text: str) -> str:
    return re.sub(r"\s+", " ", text)


def _pytest(copy: Path, tests: list[str]) -> tuple[bool, str]:
    """(passed, first failing test id or "" / "timeout")."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(PYTEST + tests, cwd=copy, env=env,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    if proc.returncode == 0:
        return True, ""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)
    return False, failed.group(1) if failed else f"exit {proc.returncode}"


def _run_one(copies: queue.Queue, sources: dict[str, bytes],
             mutant: Mutant) -> tuple[Mutant, str]:
    """Verdict "subset:<test>" (killed by FAST_TESTS), "tier1:<test>"
    (killed only by the full suite) or "survived"."""
    copy = copies.get()
    target = copy / "src" / "ptpp" / mutant.file
    try:
        target.write_bytes(mutant.apply(sources[mutant.file]))
        # The mutated file's own tests first: most mutants die there.
        own = f"tests/test_{mutant.file}"
        passed, killer = _pytest(copy, sorted(FAST_TESTS, key=own.__ne__))
        if not passed:
            return mutant, f"subset:{killer}"
        passed, killer = _pytest(copy, ["tests"])
        return mutant, "survived" if passed else f"tier1:{killer}"
    finally:
        target.write_bytes(sources[mutant.file])
        copies.put(copy)


def _copy_checkout(dest: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def _report(results: list[tuple[Mutant, str]],
            verdicts: dict[str, str]) -> str:
    total = len(results)
    killed = sum(v != "survived" for _, v in results)
    by_op = Counter(m.op for m, _ in results)
    lines = [
        "# Surviving mutants",
        "",
        "Written by `python mutation/run.py`; the edits are described in its",
        f"docstring. Files: {', '.join(f'`src/ptpp/{f}`' for f in FILES)}.",
        "",
        f"- Mutants: {total} ("
        + ", ".join(f"{op} {n}" for op, n in sorted(by_op.items())) + ").",
        f"- Killed by the fast subset (`-x`): "
        f"{sum(v.startswith('subset:') for _, v in results)}.",
        f"- Killed only by the full Tier-1 suite: "
        f"{sum(v.startswith('tier1:') for _, v in results)}.",
        f"- Survived every test: {total - killed}.",
        f"- Kill rate: {killed}/{total} = {killed / max(total, 1):.1%}.",
        "",
        "Every mutant the fast subset left alive:",
        "",
        "| site | mutant | verdict |",
        "|------|--------|---------|",
    ]
    for m, v in results:
        if v.startswith("subset:"):
            continue
        if v == "survived":
            verdict = verdicts.get(m.key, "survives; no verdict yet")
        else:
            verdict = f"killed by `{v.removeprefix('tier1:')}`"
        edit = f"`{_one_line(m.before)}` → `{m.after}`".replace("|", "\\|")
        lines.append(f"| `{m.file}:{m.line}` `{m.function}` | {edit} | "
                     f"{verdict.replace('|', chr(92) + '|')} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="test runs at once (default 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # Set before any thread starts; every test run inherits it.
    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))

    sources = {f: (ROOT / "src" / "ptpp" / f).read_bytes() for f in FILES}
    mutants = [m for f in FILES for m in generate(sources[f].decode(), f)]
    with tempfile.TemporaryDirectory(prefix="ptpp-mutation-") as tmp:
        copies: queue.Queue = queue.Queue()
        for k in range(args.jobs):
            copies.put(_copy_checkout(Path(tmp) / f"copy{k}"))
        passed, killer = _pytest(copies.queue[0], ["tests"])
        if not passed:
            print(f"unmutated suite fails ({killer}); nothing to measure",
                  file=sys.stderr)
            return 1
        results = []
        with ThreadPoolExecutor(args.jobs) as pool:
            futures = [pool.submit(_run_one, copies, sources, m)
                       for m in mutants]
            for n, future in enumerate(futures, 1):
                mutant, verdict = future.result()
                results.append((mutant, verdict))
                print(f"[{n}/{len(mutants)}] {verdict:<10.40} {mutant.key}",
                      flush=True)

    verdicts_path = HERE / "verdicts.json"
    verdicts = (json.loads(verdicts_path.read_text())
                if verdicts_path.exists() else {})
    (HERE / "SURVIVORS.md").write_text(_report(results, verdicts))
    survived = sum(v == "survived" for _, v in results)
    print(f"{len(results) - survived}/{len(results)} killed; "
          f"report in {HERE / 'SURVIVORS.md'}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
