"""Regenerate ``frozen.json``: the input fingerprints, output digests and
F-score floors of every input variant, the spans each workload fires, the
ruler's fingerprint and its reference seconds.

Run by hand, only on the commit whose outputs are the reference::

    python3 perfbench/freeze.py [--workload NAME ...]

Each variant runs once, untraced; variant 0 also runs traced to record the
spans that fire. The row-count checks still apply and must pass. A
workload's reference seconds are the ruler's median CPU times over the
variants: its set-up time and each op's time. They only set the scale of ``setup_s``
and ``wall_s``; re-freezing on a slower or faster host rescales both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import spans
import workloads


def entry(workload: str, outcome: run.Outcome) -> dict:
    """The frozen expectations for one variant, from one clean run of it."""
    result = outcome.result
    if result["failed"]:
        raise run.BenchError(f"{workload}: {result['problems']}")
    return {
        "inputs": outcome.plan.inputs,
        "ops": {op_id: {"digests": obs["digests"], "f_floor": obs.get("f", {})}
                for op_id, obs in result["observations"].items()},
        "f_scores": run.f_scores(workload, outcome),
    }


def ref_seconds(outcomes: list[run.Outcome]) -> dict:
    """The ruler's median set-up and per-op times over the variants."""
    ops = outcomes[0].result["pairs"]
    return {
        "setup_s": statistics.median(r for o in outcomes for _, r in o.setup),
        "ops": {op: statistics.median(r for o in outcomes
                                      for _, r in o.result["pairs"][op])
                for op in ops}}


def fired_spans(workload: str) -> list[str]:
    result = run.execute(workload, 0, 0.0, True).result
    return sorted(set().union(*(spans.fired(r) for r in result["rep_spans"])))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.RENDERERS))
    args = parser.parse_args()
    try:
        frozen = run.load_frozen()
    except FileNotFoundError:
        frozen = {"n_variants": workloads.N_VARIANTS, "workloads": {}}
    frozen["workloads"] = {name: entry for name, entry
                           in frozen["workloads"].items()
                           if name in workloads.RENDERERS}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, cwd=run.ROOT)
    frozen["frozen_at"] = commit.stdout.strip() or "unknown"
    frozen["ruler_sha256"] = run.ruler_digest()
    for workload in args.workload or sorted(workloads.RENDERERS):
        outcomes = []
        for variant in range(workloads.N_VARIANTS):
            outcomes.append(run.execute(workload, variant, 0.0, False,
                                        n_setup_pairs=1))
            print(f"{workload} variant {variant} frozen", flush=True)
        frozen["workloads"][workload] = {
            "spans": fired_spans(workload),
            "variants": {str(v): entry(workload, o)
                         for v, o in enumerate(outcomes)},
            "ref_seconds": ref_seconds(outcomes)}
        run.FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
