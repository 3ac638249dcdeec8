"""Run every workload through run.py and print each metric by name and
unit, with the median and quartiles over the runs.

    python3 perfbench/report.py [--runs 10] [--first-seed 0] [--trace 0]
                                [--workload NAME ...] [--json OUT]

Runs are made one at a time, seed ``first_seed + k`` for run ``k``. The
spread is (q3 - q1) / median, from ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out = {}
    for workload in names:
        results = [one_run(workload, args.first_seed + k, bench["run_seconds"],
                           args.trace) for k in range(args.runs)]
        units = {m: r["unit"] for m, r in results[0]["metrics"].items()}
        stats = {m: summary([r["metrics"][m]["value"] for r in results
                             if r["metrics"][m]["value"] is not None])
                 for m in units}
        out[workload] = {
            "runs": args.runs, "first_seed": args.first_seed,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {m: dict(stats[m], unit=units[m]) for m in units}}
        print(f"{workload}: {args.runs} run(s), correct={out[workload]['correct']}, "
              f"ops={out[workload]['attempted']}, "
              f"ops_failed={out[workload]['failed']}")
        for m, s in stats.items():
            print(f"  {m:40s} {s['median']:12.6g} {units[m]:12s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
