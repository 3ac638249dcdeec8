"""End-to-end benchmark of the ``ptpp`` CLI, with an optional traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload holter-2h --seed 1 --seconds 10 --trace 0

One run renders the workload's inputs from the seed, times set-up, then calls
``ptpp.cli.main(argv)`` for the workload's ops until ``--seconds`` have
passed. Every op's outputs are checked. With ``--trace 1`` the worker then
repeats the ops with span wrappers installed and prints the per-layer metrics
instead of the end-to-end ones. The last line of standard output is the JSON
result.

The host this was built on changes speed by up to 2.5x within seconds, and
each of its vCPUs on its own, so raw times of one run say more about the host
than about the code. Each op is therefore timed against a ruler: a frozen
copy of the ``ptpp`` sources the benchmark was frozen on (``ruler/ptpp``),
run in a worker interpreter of its own. Both workers are pinned to one CPU
and run the same op at the same time, so the scheduler interleaves them
finely and both see the same host speed; each reports the CPU seconds the
op took. The end-to-end times are the ruler's frozen reference seconds scaled
by the median ratio of program to ruler CPU time. A change that makes an op
twice as fast halves its share of ``wall_s``; a host that runs twice as slow
changes neither.

The program is imported from ``src/`` of the checkout and nowhere else; the
run fails (exit code 2, no result) when it is not there. Scratch files live
under ``.perfbench_work/`` and are removed at the end, except the traced
runs' spans, which are kept in ``.perfbench_work/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RULER = HERE / "ruler"
WORK_ROOT = ROOT / ".perfbench_work"
FROZEN_PATH = HERE / "frozen.json"

SETUP_PAIRS = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (metric, unit, better); ops and failed ops are the result's `attempted`
# and `failed` fields.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ptpp_f_score", "ratio", "higher"),
    ("pt_f_score", "ratio", "higher"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_ptpp():
    """Import ``ptpp`` from this checkout's ``src`` only."""
    if not (SRC / "ptpp" / "__init__.py").is_file():
        raise BenchError(f"no ptpp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ptpp
    if Path(ptpp.__file__).resolve().parent != (SRC / "ptpp").resolve():
        raise BenchError(f"imported ptpp from {ptpp.__file__}, not from {SRC}")
    return ptpp


def ruler_digest() -> str:
    """SHA-256 over the ruler's sources, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((RULER / "ptpp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_ruler(frozen: dict) -> None:
    if ruler_digest() != frozen["ruler_sha256"]:
        raise BenchError("the ruler's sources differ from the frozen ones; "
                         "its reference seconds no longer hold")


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so that
    the program and the ruler share the same vCPU's changes of speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_pair() -> tuple[float, float]:
    """A program and a ruler interpreter start together and exit once
    ``import ptpp.cli`` returns; returns each one's CPU seconds."""
    procs = [subprocess.Popen([sys.executable, "-c", "import ptpp.cli"],
                              env=worker_env(src), cwd=ROOT)
             for src in (SRC, RULER)]
    cpu = []
    try:
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            cpu.append(usage.ru_utime + usage.ru_stime)
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise BenchError("set-up probe could not import ptpp.cli")
    return cpu[0], cpu[1]


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Worker:
    """A worker interpreter in serve mode: it runs the op whose index it is
    sent and answers with the op's CPU seconds."""

    def __init__(self, src: Path, job: dict, cwd: Path, name: str):
        self.name = name
        job_path = cwd / f"{name}.job.json"
        self.result_path = cwd / f"{name}.result.json"
        job_path.write_text(json.dumps(dict(job, mode="serve")),
                            encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(self.result_path)], env=worker_env(src), cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def answer(self) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise BenchError(f"{self.name} worker gave no answer")
        return line.strip()

    def send(self, index: int) -> None:
        self.proc.stdin.write(b"%d\n" % index)
        self.proc.stdin.flush()

    def finish(self) -> dict:
        self.proc.stdin.close()
        if self.proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise BenchError(f"{self.name} worker exited with code "
                             f"{self.proc.returncode}")
        return json.loads(self.result_path.read_text(encoding="utf-8"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def paired_run(ops: list[dict], work: Path, seconds: float,
               frozen_ops: dict | None) -> dict:
    """Program and ruler run each op at the same time, on one CPU, until
    every op has run once and ``seconds`` have gone by."""
    job = {"ops": ops, "frozen_ops": frozen_ops}
    ruler_dir = work / "ruler"
    (ruler_dir / "out").mkdir(parents=True)
    workers = [Worker(SRC, job, work, "program"),
               Worker(RULER, dict(job, frozen_ops=None), ruler_dir, "ruler")]
    try:
        for w in workers:
            if w.answer() != b"ready":
                raise BenchError(f"{w.name} worker did not start")
        pairs: dict[str, list] = {op["id"]: [] for op in ops}
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(ops) or time.perf_counter() < deadline:
            for w in workers:
                w.send(k % len(ops))
            pairs[ops[k % len(ops)]["id"]].append(
                tuple(float(w.answer()) for w in workers))
            k += 1
        result, checked = (w.finish() for w in workers)
    finally:
        for w in workers:
            w.stop()
    if checked["failed"]:
        raise BenchError(f"the ruler failed its own checks: "
                         f"{checked['problems']}")
    result["pairs"] = pairs
    return result


def traced_run(ops: list[dict], work: Path, seconds: float,
               frozen_ops: dict | None) -> dict:
    job_path, result_path = work / "trace.job.json", work / "trace.result.json"
    job_path.write_text(json.dumps({
        "mode": "trace", "ops": ops, "seconds": seconds,
        "frozen_ops": frozen_ops}), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(result_path)], env=worker_env(SRC), cwd=work,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


@dataclass
class Outcome:
    plan: object
    result: dict
    setup: list[tuple[float, float]] = field(default_factory=list)


def execute(workload: str, seed: int, seconds: float, trace: bool,
            size=None, frozen_ops: dict | None = None,
            n_setup_pairs: int = SETUP_PAIRS) -> Outcome:
    """Render, time set-up, run the workers; the scratch directory is
    removed before returning."""
    ptpp = load_ptpp()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads
    pin_to_one_cpu()
    setup = [] if trace else [setup_pair() for _ in range(n_setup_pairs)]
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.render(ptpp, workload, work, seed,
                                size or workloads.FULL)
        runner = traced_run if trace else paired_run
        result = runner(plan.ops, work, seconds, frozen_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Outcome(plan=plan, result=result, setup=setup)


def f_scores(workload: str, outcome: Outcome) -> dict[str, float]:
    """Pooled F-scores against the synthetic truth (100 ms tolerance)."""
    import checks
    obs = outcome.result["observations"]
    scores = {d: checks.f_score(*c) for d, c in outcome.plan.quality.items()}
    if workload == "holter-2h":
        scores.update(obs["compare"].get("f", {}))
    elif workload == "csv-batch-10min":
        counts = [o.get("counts", [0, 0, 0]) for o in obs.values()]
        scores["ptpp"] = checks.f_score(*(sum(c[i] for c in counts)
                                          for i in range(3)))
    return scores


def quality_problems(scores: dict, inputs: dict, frozen: dict) -> list[str]:
    problems = []
    if inputs != frozen["inputs"]:
        changed = sorted(k for k in frozen["inputs"]
                         if inputs.get(k) != frozen["inputs"][k])
        problems.append(f"rendered inputs differ from the frozen ones: {changed}")
    for detector, floor in frozen["f_scores"].items():
        if scores.get(detector, 0.0) < floor:
            problems.append(f"{detector} F-score {scores.get(detector)} "
                            f"below floor {floor}")
    return problems


def ratio(pairs: list[tuple[float, float]]) -> float:
    """Median over the pairs of program CPU time / ruler CPU time."""
    return statistics.median(p / r for p, r in pairs)


def best_wall(passes: list[dict[str, float]]) -> float:
    """Sum over the ops of each op's fastest pass."""
    return sum(min(p[op] for p in passes) for op in passes[0])


def raw_wall(pairs: dict[str, list]) -> float:
    """Sum over the ops of each op's median program CPU time, unscaled."""
    return sum(statistics.median(p for p, _ in v) for v in pairs.values())


def end_to_end_metrics(outcome: Outcome, scores: dict, ref: dict) -> dict:
    """``ref`` holds the ruler's reference seconds: ``setup_s`` and one
    entry per op id under ``ops``."""
    pairs = outcome.result["pairs"]
    return {
        "setup_s": ref["setup_s"] * ratio(outcome.setup),
        "wall_s": sum(ref["ops"][op] * ratio(v) for op, v in pairs.items()),
        "peak_rss_mb": outcome.result["peak_rss_mb"],
        "ptpp_f_score": scores["ptpp"],
        "pt_f_score": scores["pt"],
    }


def per_layer_metrics(outcome: Outcome, expected_spans: set[str]) -> dict:
    import spans
    r = outcome.result
    values = spans.layer_metrics(r["rep_spans"], r["memory_spans"],
                                 expected_spans)
    values["cli.output_mb"] = statistics.median(r["rep_output_bytes"]) / 1e6
    values["trace.overhead_s"] = (best_wall(r["traced_passes"])
                                  - best_wall(r["passes"]))
    return values


def save_spans(workload: str, seed: int, result: dict) -> Path:
    out = WORK_ROOT / "spans" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "meta"],
        "reps": result["rep_spans"], "memory": result["memory_spans"]}),
        encoding="utf-8")
    return out


def units() -> dict[str, str]:
    import spans
    table = {m: u for m, u, _ in END_TO_END}
    table.update({m: u for m, u, *_ in spans.LAYER_METRICS})
    table.update({m: u for m, u, _ in spans.RUN_METRICS})
    return table


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    frozen_all = load_frozen()
    if workload not in frozen_all["workloads"]:
        raise BenchError(f"unknown workload {workload!r}; expected one of "
                         f"{sorted(frozen_all['workloads'])}")
    frozen_w = frozen_all["workloads"][workload]
    variant = seed % frozen_all["n_variants"]
    frozen = frozen_w["variants"][str(variant)]
    check_ruler(frozen_all)
    outcome = execute(workload, seed, seconds, trace, frozen_ops=frozen["ops"])
    scores = f_scores(workload, outcome)
    problems = (outcome.result["problems"]
                + quality_problems(scores, outcome.plan.inputs, frozen))
    if trace:
        values = per_layer_metrics(outcome, set(frozen_w["spans"]))
        absent = outcome.result["absent_targets"]
        print(f"spans -> {save_spans(workload, seed, outcome.result)}")
        if absent:
            print(f"not installed (gone from ptpp): {absent}", file=sys.stderr)
    else:
        values = end_to_end_metrics(outcome, scores, frozen_w["ref_seconds"])
        pairs = outcome.result["pairs"]
        print(f"unscaled CPU time: set-up "
              f"{statistics.median(p for p, _ in outcome.setup):.4g} s, ops "
              f"{raw_wall(pairs):.4g} s, over {len(outcome.setup)} and "
              f"{sum(map(len, pairs.values()))} program/ruler pairs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    unit = units()
    print(f"{workload} seed {seed} (input variant {variant}): "
          f"{outcome.result['attempted']} ops, {outcome.result['failed']} failed")
    for name, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown} {unit[name]}")
    return {"correct": not problems,
            "attempted": outcome.result["attempted"],
            "failed": outcome.result["failed"],
            "metrics": {name: {"value": value, "unit": unit[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, FileNotFoundError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
