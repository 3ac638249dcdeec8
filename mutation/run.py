"""Mutation testing of the decision layer and the filter pipeline.

Usage, from the root of a checkout::

    python mutation/run.py [--jobs 2]                 # every mutant
    python mutation/run.py --select detector.py:350-470 --select pipeline.py
    python mutation/run.py --render                   # run nothing

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
survives it is run against the whole Tier-1 suite.

``--select FILE[:FIRST[-LAST]]`` (repeatable) runs only the mutants whose
first line lies in the given lines of one of those files, say the lines an
edit touched. A run without it is a full run. Each mutant's verdict, keyed
by the mutant's ``key``, goes to ``mutation/results/partial.json`` (on top
of the partial runs before it) as soon as the mutant is decided, so a run
stopped part-way keeps what it decided; a stopped full run reads as a
partial run of whole files. A full run that ends moves its verdicts to
``mutation/results/full.json`` and drops the partial results.

Every run, and ``--render`` without running anything, writes
``mutation/SURVIVORS.md`` for the mutants of the current sources: a mutant
takes its verdict from the partial results, else from the full run, else it
is "not run". The report gives the kill rate over the mutants run and the
count not run, and for each subset survivor its site, the edit and a verdict, which is either the full-suite test that
killed it or, for a mutant nothing kills, the reason given for it in
``mutation/verdicts.json`` (keyed by the mutant's ``key``). A partial run
must select every line an edit touched: a key outside the selection keeps
its full-run verdict, and keys number repeated edits within a function, so
an edit can move a key onto another site of the same function.

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
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
FILES = ("detector.py", "baseline.py", "pipeline.py")
FAST_TESTS = ["tests/test_detector.py", "tests/test_baseline.py",
              "tests/test_pipeline.py", "tests/test_goldens.py",
              "tests/test_acceptance.py"]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "-p", "_no_shrink"]
# A pytest plugin each copy holds: hypothesis reports the first failing
# example it finds instead of shrinking it. A mutant is killed or not all
# the same, but shrinking a failure of the decision oracle took minutes.
NO_SHRINK_PLUGIN = """import hypothesis

hypothesis.settings.register_profile("no_shrink", phases=[
    hypothesis.Phase.explicit, hypothesis.Phase.reuse,
    hypothesis.Phase.generate])
hypothesis.settings.load_profile("no_shrink")
"""
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"),
                                                      str(copy)]),
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
    # perfbench/: a Tier-1 test reads the benchmark's tracer and workloads.
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "_no_shrink.py").write_text(NO_SHRINK_PLUGIN)
    return dest


def selection(text: str) -> tuple[str, int, float]:
    """``FILE[:FIRST[-LAST]]`` as (file, first line, last line)."""
    file, colon, lines = text.partition(":")
    if file not in FILES:
        raise argparse.ArgumentTypeError(
            f"{file!r} is not one of {', '.join(FILES)}")
    if not colon:
        return file, 1, math.inf
    first, dash, last = lines.partition("-")
    try:
        first_line = int(first)
        last_line = int(last) if dash else first_line
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{lines!r} is not FIRST or FIRST-LAST") from None
    if not 1 <= first_line <= last_line:
        raise argparse.ArgumentTypeError(
            f"{lines!r} is not a line range 1 <= FIRST <= LAST")
    return file, first_line, last_line


def is_selected(mutant: Mutant, chosen) -> bool:
    return any(mutant.file == file and first <= mutant.line <= last
               for file, first, last in chosen)


def _selection_text(file: str, first: int, last: float) -> str:
    if last == math.inf:
        return file
    return f"{file}:{first}" + (f"-{last}" if last != first else "")


def load_results(path: Path) -> dict:
    """Saved results: ``{"select": [...] or None, "verdicts": {key: ...}}``;
    none saved reads as no verdicts."""
    if not path.exists():
        return {"select": [], "verdicts": {}}
    return json.loads(path.read_text())


def _write_results(path: Path, data: dict) -> None:
    # Whole or not at all: a run stopped while writing keeps the last file.
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    os.replace(tmp, path)


def save_results(results_dir: Path, results: list[tuple[Mutant, str]],
                 chosen) -> None:
    """Save a full run (``chosen`` empty) or add verdicts of a partial run,
    and the selections ``chosen``, to the partial results."""
    results_dir.mkdir(exist_ok=True)
    verdicts = {m.key: v for m, v in results}
    partial = results_dir / "partial.json"
    if chosen:
        data = load_results(partial)
        for text in (_selection_text(*c) for c in chosen):
            if text not in data["select"]:
                data["select"].append(text)
        data["verdicts"].update(verdicts)
        _write_results(partial, data)
    else:
        _write_results(results_dir / "full.json",
                       {"select": None, "verdicts": verdicts})
        partial.unlink(missing_ok=True)


def merged(mutants: list[Mutant],
           results_dir: Path) -> tuple[list[tuple[Mutant, str]], list[str]]:
    """Each mutant with its partial-run verdict, else its full-run one, else
    "not run"; and the selections of the partial runs."""
    partial = load_results(results_dir / "partial.json")
    verdicts = {**load_results(results_dir / "full.json")["verdicts"],
                **partial["verdicts"]}
    return ([(m, verdicts.get(m.key, "not run")) for m in mutants],
            partial["select"])


def _report(results: list[tuple[Mutant, str]], verdicts: dict[str, str],
            partial_select: list[str] = ()) -> str:
    ran = [(m, v) for m, v in results if v != "not run"]
    total = len(ran)
    killed = sum(v != "survived" for _, v in ran)
    by_op = Counter(m.op for m, _ in ran)
    lines = [
        "# Surviving mutants",
        "",
        "Written by `python mutation/run.py`; the edits are described in its",
        f"docstring. Files: {', '.join(f'`src/ptpp/{f}`' for f in FILES)}.",
        "Verdicts come from the runs saved in `mutation/results/`"
        + ("; the partial runs of "
           + ", ".join(f"`{s}`" for s in partial_select)
           + " override a full run's" if partial_select else "") + ".",
        "",
        f"- Mutants: {total} ("
        + ", ".join(f"{op} {n}" for op, n in sorted(by_op.items())) + ").",
        f"- Killed by the fast subset (`-x`): "
        f"{sum(v.startswith('subset:') for _, v in ran)}.",
        f"- Killed only by the full Tier-1 suite: "
        f"{sum(v.startswith('tier1:') for _, v in ran)}.",
        f"- Survived every test: {total - killed}.",
        f"- Kill rate: {killed}/{total} = {killed / max(total, 1):.1%}.",
    ]
    if len(ran) < len(results):
        lines.append(f"- Not run (in no saved run): "
                     f"{len(results) - len(ran)}.")
    lines += [
        "",
        "Every mutant run that the fast subset left alive:",
        "",
        "| site | mutant | verdict |",
        "|------|--------|---------|",
    ]
    for m, v in results:
        if v.startswith("subset:") or v == "not run":
            continue
        if v == "survived":
            verdict = verdicts.get(m.key, "survives; no verdict yet")
        else:
            verdict = f"killed by `{v.removeprefix('tier1:')}`"
        edit = f"`{_one_line(m.before)}` → `{m.after}`".replace("|", "\\|")
        lines.append(f"| `{m.file}:{m.line}` `{m.function}` | {edit} | "
                     f"{verdict.replace('|', chr(92) + '|')} |")
    return "\n".join(lines) + "\n"


def _run(mutants: list[Mutant], sources: dict[str, bytes], jobs: int,
         decided) -> list[tuple[Mutant, str]] | None:
    """Each mutant with its verdict; None if the unmutated suite fails.
    ``decided(mutant, verdict)`` is called, one call at a time, as each
    mutant is decided; once the run is stopped (an exception, say
    KeyboardInterrupt), no more, and mutants not yet started never run."""
    with tempfile.TemporaryDirectory(prefix="ptpp-mutation-") as tmp:
        copies: queue.Queue = queue.Queue()
        for k in range(jobs):
            copies.put(_copy_checkout(Path(tmp) / f"copy{k}"))
        passed, killer = _pytest(copies.queue[0], ["tests"])
        if not passed:
            print(f"unmutated suite fails ({killer}); nothing to measure",
                  file=sys.stderr)
            return None
        lock, stop = threading.Lock(), threading.Event()

        def run_one(mutant: Mutant) -> tuple[Mutant, str] | None:
            if stop.is_set():
                return None  # the run is stopping; main reads no more
            try:
                result = _run_one(copies, sources, mutant)
            except BaseException:
                stop.set()
                raise
            with lock:
                if not stop.is_set():  # a stop may have cut its tests short
                    decided(*result)
            return result

        results = []
        pool = ThreadPoolExecutor(jobs)
        try:
            futures = [pool.submit(run_one, m) for m in mutants]
            for n, future in enumerate(futures, 1):
                mutant, verdict = future.result()
                results.append((mutant, verdict))
                print(f"[{n}/{len(mutants)}] {verdict:<10.40} {mutant.key}",
                      flush=True)
        except BaseException:
            with lock:
                stop.set()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="test runs at once (default 1)")
    parser.add_argument("--select", type=selection, action="append",
                        default=[], metavar="FILE[:FIRST[-LAST]]",
                        help="run only the mutants starting in these lines "
                             "(repeatable)")
    parser.add_argument("--render", action="store_true",
                        help="write SURVIVORS.md from the saved results "
                             "and run nothing")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.render and args.select:
        parser.error("--render runs nothing; it takes no --select")

    sources = {f: (ROOT / "src" / "ptpp" / f).read_bytes() for f in FILES}
    mutants = [m for f in FILES for m in generate(sources[f].decode(), f)]
    if not args.render:
        chosen = [m for m in mutants
                  if not args.select or is_selected(m, args.select)]
        # Set before any thread starts; every test run inherits it.
        resource.setrlimit(resource.RLIMIT_AS,
                           (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
        whole = [(f, 1, math.inf) for f in FILES]
        results = _run(chosen, sources, args.jobs, lambda m, v: save_results(
            RESULTS, [(m, v)], args.select or whole))
        if results is None:
            return 1
        if not args.select:
            save_results(RESULTS, results, [])
        survived = sum(v == "survived" for _, v in results)
        print(f"{len(results) - survived}/{len(results)} killed")

    verdicts_path = HERE / "verdicts.json"
    verdicts = (json.loads(verdicts_path.read_text())
                if verdicts_path.exists() else {})
    results, partial_select = merged(mutants, RESULTS)
    (HERE / "SURVIVORS.md").write_text(_report(results, verdicts,
                                               partial_select))
    print(f"report in {HERE / 'SURVIVORS.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
