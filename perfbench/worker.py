"""Benchmark worker: one fresh interpreter that imports ``ptpp.cli`` and
calls ``ptpp.cli.main(argv)`` for the ops of a workload.

Usage: ``python3 worker.py JOB_JSON RESULT_JSON`` with the ``ptpp`` to run on
PYTHONPATH. A job in ``serve`` mode prints ``ready``, then runs the op whose
index arrives on each line of standard input and answers with the CPU seconds
it took, one line per op, until standard input closes. A ``trace`` job repeats the op
list on its own, untraced and then traced, until its time budget is spent.
The result JSON holds peak RSS growth, the first observation of every op, the
check failures and, when traced, the wall times and spans.
"""

import contextlib
import io
import json
import sys
import time
import traceback

import ptpp.cli

import checks


def rss_kb(field: str) -> int:
    """This process's ``VmRSS`` or ``VmHWM``. ``getrusage``'s ``ru_maxrss``
    would do for the peak, except that Linux carries the parent's high-water
    mark across ``exec`` into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def _main_exit_code(main, argv):
    """``main(argv)``'s exit code; a crash inside the call fails that op
    rather than the whole run."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code
    except Exception as exc:
        traceback.print_exc()
        return f"none: it raised {type(exc).__name__}"


class Runner:
    def __init__(self, job: dict):
        self.ops = job["ops"]
        self.frozen = job["frozen_ops"]  # op id -> frozen digests/floors, or None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_obs: dict[str, dict] = {}
        self.output_bytes = 0
        self._truth: dict = {}
        self.clock = time.perf_counter

    def run_op(self, op: dict, tracer=None) -> float:
        """One CLI call, timed; its outputs are checked after the clock stops."""
        sink = io.StringIO()
        started = self.clock()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = _main_exit_code(ptpp.cli.main, op["argv"])
            else:
                rc = tracer.call("cli.main", _main_exit_code, ptpp.cli.main,
                                 op["argv"])
        elapsed = self.clock() - started
        obs = checks.observe(op, rc, self._truth)
        self.attempted += 1
        frozen = self.frozen.get(op["id"]) if self.frozen is not None else None
        problems = checks.failures(op, obs, frozen)
        self.failed += bool(problems)
        self.problems += [f"{op['id']}: {problem}" for problem in problems]
        self.first_obs.setdefault(op["id"], obs)
        self.output_bytes += obs.get("bytes", 0)
        return elapsed

    def reps(self, seconds: float, min_reps: int, tracer=None,
             rep_spans=None) -> list[dict[str, float]]:
        """Whole passes over the op list until ``seconds`` have gone by and
        at least ``min_reps`` passes are done; returns each pass's wall time
        per op."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_reps or time.perf_counter() < deadline:
            self.output_bytes = 0
            start_index = len(tracer.spans) if tracer else 0
            times = {}
            for op in self.ops:
                if tracer is not None:
                    tracer.op = f"{len(passes)}/{op['id']}"
                times[op["id"]] = self.run_op(op, tracer)
            passes.append(times)
            if rep_spans is not None:
                # Parent indices point into tracer.spans; make them point
                # into this pass's own list.
                own = [[*span[:3], None if span[3] is None
                        else span[3] - start_index, *span[4:]]
                       for span in tracer.spans[start_index:]]
                rep_spans.append((own, self.output_bytes))
        return passes


def serve(runner: Runner) -> None:
    """Run the op each input line names; answer with its CPU seconds. The
    other worker runs the same op at the same time on the same CPU, so each
    one's wall time counts the other's work too; its CPU time does not."""
    runner.clock = time.process_time
    reply = sys.stdout
    print("ready", file=reply, flush=True)
    for line in sys.stdin:
        elapsed = runner.run_op(runner.ops[int(line)])
        print(repr(elapsed), file=reply, flush=True)


def main() -> int:
    rss_after_import_kb = rss_kb("VmRSS")
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    runner = Runner(job)
    result = {}
    if job["mode"] == "serve":
        serve(runner)
    else:
        # A traced run splits its time between an untraced and a traced pass.
        result["passes"] = runner.reps(job["seconds"] / 2, 1)
    result["peak_rss_mb"] = (rss_kb("VmHWM") - rss_after_import_kb) / 1024.0

    if job["mode"] == "trace":
        import spans
        seconds = job["seconds"] / 2
        tracer = spans.Tracer()
        absent, restore = spans.install(tracer)
        traced = []
        result["traced_passes"] = runner.reps(seconds, 1, tracer, traced)
        # Memory pass: tracemalloc runs only inside MEMORY_SPANS, and only
        # until each of them that fired has been measured once.
        mem = spans.Tracer(memory=True)
        restore()
        spans.install(mem)
        wanted = set(spans.MEMORY_SPANS) & spans.fired(tracer.spans)
        for op in runner.ops:
            if not wanted - spans.fired(mem.spans):
                break
            mem.op = f"memory/{op['id']}"
            runner.run_op(op, mem)
        result["absent_targets"] = absent
        result["rep_spans"] = [s for s, _ in traced]
        result["rep_output_bytes"] = [b for _, b in traced]
        result["memory_spans"] = mem.spans

    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, observations=runner.first_obs)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
