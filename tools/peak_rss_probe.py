"""Peak-RSS probe: a workload's CLI ops in one fresh interpreter per side.

Usage, from the root of a checkout::

    python3 tools/peak_rss_probe.py --workload csv-batch-10min \\
        --src PARENT/src --src CHANGE/src --rounds 8

The workload's inputs are rendered once, with ``perfbench``'s own renderer
and the first ``--src``. Then each round starts one interpreter per side,
alternating which side goes first. Each imports ``ptpp.cli`` from its
``--src``, reads its ``VmRSS``, calls ``ptpp.cli.main(argv)`` for every op
``--passes`` times, and reports its ``VmHWM`` less that ``VmRSS``, in MB.
That is perfbench's ``peak_rss_mb``, without the ruler and the timing, so
many interpreters fit in the time of one benchmark run. As in perfbench's
workers, the numeric libraries run one thread each. Only exit codes are
checked here; perfbench checks the outputs. The last line of standard
output is the JSON result: each side's readings in round order, and their
medians. Linux only (``/proc/self/status``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def child(ops_path: str, passes: int) -> None:
    """Run in a fresh interpreter with one side's ``src`` on PYTHONPATH."""
    import ptpp.cli
    after_import_kb = _status_kb("VmRSS")
    argvs = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    for _ in range(passes):
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ptpp.cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{argv}: exit code {rc}")
    print((_status_kb("VmHWM") - after_import_kb) / 1024.0)


def render(workload: str, src: Path, work: Path, seed: int) -> list[list]:
    """The workload's op argvs, with its inputs written under ``work``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import ptpp
    import workloads
    plan = workloads.render(ptpp, workload, work, seed)
    return [op["argv"] for op in plan.ops]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--src", action="append", type=Path, required=True,
                    help="a side's src directory; give two or more")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child, args.passes)
        return 0
    srcs = [p.resolve() for p in args.src]
    readings: dict[str, list[float]] = {str(s): [] for s in srcs}
    with tempfile.TemporaryDirectory(prefix="rss_probe_") as tmp:
        work = Path(tmp)
        ops_path = work / "ops.json"
        ops_path.write_text(json.dumps(
            render(args.workload, srcs[0], work / "in", args.seed)))
        for r in range(args.rounds):
            order = list(enumerate(srcs))
            for i, src in order if r % 2 == 0 else order[::-1]:
                cwd = work / f"run{r}" / f"side{i}"
                (cwd / "out").mkdir(parents=True)
                env = dict(os.environ, PYTHONPATH=str(src),
                           PYTHONDONTWRITEBYTECODE="1")
                env.update({name: "1" for name in THREAD_VARS})
                out = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", args.workload, "--src", str(src),
                     "--passes", str(args.passes), "--child", str(ops_path)],
                    cwd=cwd, env=env, check=True, capture_output=True,
                    text=True).stdout
                readings[str(src)].append(round(float(out.split()[-1]), 4))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": args.passes,
        "readings_mb": readings,
        "medians_mb": {s: statistics.median(v) for s, v in readings.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
