"""CLI output goldens: ``detect``, ``stages``, ``eval`` and ``compare`` write
the bytes frozen in ``tests/goldens/cli_outputs.json`` by
``tests/goldens/make_cli_goldens.py`` (metrics files without their timing
column). Also pins how often ``eval``/``compare`` read their inputs."""

import json
import logging
from collections import Counter

from ptpp import cli

from goldens.make_cli_goldens import GOLDEN_PATH, cli_digests, write_wfdb_record

GOLDENS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_cli_outputs_match_golden(tmp_path):
    assert GOLDENS["generated_at_commit"]
    assert cli_digests(tmp_path) == GOLDENS["digests"]


def test_compare_reads_each_record_and_annotation_file_once(tmp_path,
                                                            monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("load_wfdb_record", "load_annotations"):
        monkeypatch.setattr(cli, name, counting(name))
    records = [str(write_wfdb_record(tmp_path, name)) for name in ("a", "b")]
    assert cli.main(["compare", *records,
                     "-o", str(tmp_path / "compare.csv")]) == 0
    assert calls == {"load_wfdb_record": 2, "load_annotations": 2}


def test_channel_warning_once_per_record(tmp_path, caplog):
    records = [str(write_wfdb_record(tmp_path, name, labels=("V1", "V5")))
               for name in ("a", "b")]
    with caplog.at_level(logging.WARNING, logger="ptpp"):
        assert cli.main(["compare", *records,
                         "-o", str(tmp_path / "compare.csv")]) == 0
    warnings = [r for r in caplog.records
                if "no conventional lead label" in r.getMessage()]
    assert len(warnings) == 2
