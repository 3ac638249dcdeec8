"""Smoke test of ``tools/peak_rss_probe.py``: one round, one pass, on the
smallest workload, with this checkout's ``src`` on both sides."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PROBE = ROOT / "tools" / "peak_rss_probe.py"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the probe reads /proc/self/status")
def test_one_round_reads_each_side_once(tmp_path):
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(PROBE), "--workload", "stages-dump-10min",
         "--src", src, "--src", src, "--rounds", "1", "--passes", "1"],
        cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"workload", "seed", "passes", "srcs",
                           "readings_mb", "medians_mb"}
    assert result["workload"] == "stages-dump-10min"
    assert result["passes"] == 1
    # The same tree twice is still two sides, one reading each.
    assert result["srcs"] == [src, src]
    assert [len(r) for r in result["readings_mb"]] == [1, 1]
    assert result["medians_mb"] == [r[0] for r in result["readings_mb"]]
    assert all(m > 0 for m in result["medians_mb"])
