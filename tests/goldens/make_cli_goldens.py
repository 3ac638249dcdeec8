"""Record the CLI output digests that ``tests/test_cli_goldens.py`` compares against.

Renders two small records, runs ``detect``, ``stages``, ``eval`` and
``compare`` on them and ``synth`` on a spec through :func:`ptpp.cli.main`,
and keeps a SHA-256 of every file those calls write:

- ``detect --detector {ptpp,pt}`` on a CSV record and on a two-lead
  format-212 WFDB record (``MLII``/``V5``);
- ``stages --detector {ptpp,pt}`` on the CSV record;
- ``eval`` and ``compare`` on both records together. Metrics files are
  digested without their ``exec_time_s`` column; the disagreements file is
  digested whole;
- ``synth`` on the CSV record's spec with a plain ``-o`` stem: the ``.csv``
  and the ``.ann`` it writes.

Regenerate only on purpose, from a commit whose CLI outputs are trusted::

    PYTHONPATH=src python tests/goldens/make_cli_goldens.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import ptpp  # noqa: E402
from ptpp import cli  # noqa: E402
from goldens.make_goldens import _commit  # noqa: E402
from helpers import encode212, make_header  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("cli_outputs.json")

# Tall, late T-waves and every 4th beat shrunk: the classic detector takes
# T-waves for beats and misses small beats that Pan-Tompkins++ finds, so the
# disagreements of this one record come from both detectors.
CSV_SPEC = dict(duration_s=40.0, heart_rate_bpm=60.0,
                qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.3], t_wave_amplitude=1.3,
                t_wave_delay_ms=300.0, t_wave_width_ms=135.0,
                noise_snr_db=20.0, seed=12)
# Every 4th MLII beat shrunk under tall T-waves; V5 is a quieter lead.
LEAD_SPECS = {
    "MLII": dict(duration_s=30.0, qrs_amplitude_mv=[1.0, 1.0, 1.0, 0.45],
                 t_wave_amplitude=1.4, noise_snr_db=20.0, seed=11),
    "V5": dict(duration_s=30.0, qrs_amplitude_mv=0.6, noise_snr_db=15.0,
               seed=3),
}
ADC_GAIN = 200.0  # ADC units per mV; 12-bit codes cover about ±10 mV


def write_csv_record(root: Path, name: str = "csvrec") -> Path:
    """A synthetic CSV record with its sibling ``.ann`` file."""
    record, truth = ptpp.synth_ecg(ptpp.SynthSpec.from_dict(dict(CSV_SPEC)))
    ptpp.save_csv(record, root / f"{name}.csv")
    ptpp.save_annotations(truth, root / f"{name}.ann")
    return root / f"{name}.csv"


def write_wfdb_record(root: Path, name: str = "wfrec",
                      labels: tuple[str, str] = ("MLII", "V5")) -> Path:
    """A two-lead format-212 record at 360 Hz with a sibling ``.ann`` file
    holding the first lead's beats. ``labels`` renames the two leads."""
    leads = [ptpp.synth_ecg(ptpp.SynthSpec.from_dict(dict(spec)))
             for spec in LEAD_SPECS.values()]
    codes = np.column_stack([np.round(rec.channels[0].samples * ADC_GAIN)
                             for rec, _ in leads]).astype(np.int64)
    (root / f"{name}.dat").write_bytes(encode212(codes.ravel()))
    signal_lines = [f"{name}.dat 212 {ADC_GAIN:g} 12 0 0 0 0 {label}"
                    for label in labels]
    header = make_header(name, 360.0, len(codes), signal_lines)
    (root / f"{name}.hea").write_text(header, encoding="utf-8")
    ptpp.save_annotations(leads[0][1], root / f"{name}.ann")
    return root / f"{name}.hea"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def metrics_digest(path: Path) -> str:
    """SHA-256 of a metrics CSV with its ``exec_time_s`` column dropped."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    skip = rows[0].index("exec_time_s")
    kept = [",".join(v for i, v in enumerate(row) if i != skip)
            for row in rows]
    return _sha256("\n".join(kept).encode("utf-8"))


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ptpp {' '.join(argv)} exited {code}")


def cli_digests(root: Path) -> dict[str, str]:
    """Write the inputs under ``root``, run every call and digest its outputs."""
    csv_rec = str(write_csv_record(root))
    wfdb_rec = str(write_wfdb_record(root))
    digests = {}
    for detector in ptpp.DETECTORS:
        for kind, record in (("csv", csv_rec), ("wfdb", wfdb_rec)):
            out = root / f"detect-{detector}-{kind}.csv"
            _run(["detect", record, "--detector", detector, "-o", str(out)])
            digests[out.name] = _sha256(out.read_bytes())
        out = root / f"stages-{detector}-csv.csv"
        _run(["stages", csv_rec, "--detector", detector, "-o", str(out)])
        digests[out.name] = _sha256(out.read_bytes())

    out = root / "eval.csv"
    _run(["eval", csv_rec, wfdb_rec, "-o", str(out)])
    digests[out.name] = metrics_digest(out)

    out, dis = root / "compare.csv", root / "compare-disagreements.csv"
    _run(["compare", csv_rec, wfdb_rec, "-o", str(out),
          "--disagreements", str(dis)])
    digests[out.name] = metrics_digest(out)
    digests[dis.name] = _sha256(dis.read_bytes())

    spec = root / "synth-spec.json"
    spec.write_text(json.dumps(CSV_SPEC), encoding="utf-8")
    _run(["synth", str(spec), "-o", str(root / "synthrec")])
    for suffix in (".csv", ".ann"):
        out = root / f"synthrec{suffix}"
        digests[out.name] = _sha256(out.read_bytes())
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        digests = cli_digests(Path(tmp))
    payload = {
        "generated_at_commit": _commit(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "digests": digests,
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"{len(digests)} outputs -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
