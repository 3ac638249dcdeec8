"""Record and annotation ingestion tests.

The format-212 and annotation-stream tests check the parsers against
independent encoders in ``helpers`` rather than against the parsers' own
inverse, so a packing mistake cannot cancel itself out. The CSV reader is
checked against its original per-line loop the same way, and the block
writer behind ``save_csv`` and ``stages`` against the per-row writers.
"""

import gzip
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import ptpp
import ptpp.io
from ptpp.cli import STAGES_HEADER
from ptpp.io import BEAT_CODE_BY_SYMBOL, INVALID_SAMPLE

from helpers import (AtrStream, atr_word, count_commas_reference,
                     decode_format16_reference, decode_format212_reference,
                     encode212, load_atr_reference, load_csv_reference,
                     make_header, save_csv_reference, sign_extend_12,
                     stages_writer_reference)

GOLDEN_100_HEA = """\
100 2 360 650000 0:0:0 0/0/0
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200 11 1024 1011 20052 0 V5
# 69 M 1085 1629 x1
"""


# ---------------------------------------------------------------------------
# CSV traces

class TestLoadCsv:
    def test_bare_values(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0\n1\n0\n")
        rec = ptpp.load_csv(p, 360.0)
        assert rec.sampling_rate_hz == 360.0
        assert rec.duration_samples == 3
        assert len(rec.channels) == 1
        np.testing.assert_array_equal(rec.channels[0].samples, [0.0, 1.0, 0.0])
        assert rec.channels[0].gain == 1.0
        assert rec.channels[0].baseline == 0

    def test_index_value_pairs(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,0.5\n1,-0.25\n")
        rec = ptpp.load_csv(p, 250.0)
        np.testing.assert_array_equal(rec.channels[0].samples, [0.5, -0.25])

    def test_header_row_tolerated(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("sample_index,value\n0,1.5\n1,2.5\n")
        rec = ptpp.load_csv(p, 360.0)
        np.testing.assert_array_equal(rec.channels[0].samples, [1.5, 2.5])

    def test_malformed_line_cites_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0\nabc\n2.0\n")
        with pytest.raises(ptpp.ParseError, match="line 2"):
            ptpp.load_csv(p, 360.0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ptpp.ParseError):
            ptpp.load_csv(p, 360.0)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(ptpp.ParseError, match="line 2"):
            ptpp.load_csv(p, 360.0)

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
    def test_each_non_finite_value_rejected(self, tmp_path, value):
        p = tmp_path / "t.csv"
        p.write_text(f"sample_index,value\n0,1.0\n1,{value}\n2,-1.0\n")
        with pytest.raises(ptpp.ParseError, match="line 3: non-finite"):
            ptpp.load_csv(p, 360.0)

    def test_half_hour_record_length(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text("\n".join(["0.0"] * 650000) + "\n")
        rec = ptpp.load_csv(p, 360.0)
        assert rec.duration_samples == 650000

    def test_save_load_round_trip(self, tmp_path):
        samples = np.array([0.0, 1.25, -0.7071067811865476, 3e-5])
        rec = ptpp.Record(
            sampling_rate_hz=360.0,
            channels=[ptpp.Channel("ecg", samples, 1.0, 0)],
            duration_samples=len(samples))
        p = tmp_path / "out.csv"
        ptpp.save_csv(rec, p)
        again = ptpp.load_csv(p, 360.0)
        np.testing.assert_array_equal(again.channels[0].samples, samples)


# Lines numpy's reader refuses where float() does not, lines both refuse,
# lines that change the field count and odd lines both read; each file must
# end as the per-line loop ends it.
_CSV_ODD_LINES = [
    "sample_index,value", "value", "time,ecg", "", "   ", "\t", "1,2,3",
    "abc,1", "1_0", "0,1_0", "\u0661", "nan", "inf", "-inf", "1e400", "#x",
    "\x1c", "1\x1c", "\xa0", "\xa02.5", "\ufeff1", "5,", ",5", "0.5",
    "7,0.5", " 2.5 ", "+1.5", "1E5", ".5", "Infinity",
]
_CSV_HEADERS = ["sample_index,value", "value", "\ufeffsample_index,value"]


@st.composite
def csv_texts(draw):
    """Mostly well-formed CSV text with odd lines mixed in at random."""
    two_fields = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(_CSV_HEADERS)))
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_CSV_ODD_LINES)))
        else:
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            lines.append(f"{i},{value!r}" if two_fields else repr(value))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        endings = st.just(draw(endings))
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _read_either(reader, path):
    try:
        return reader(path).tobytes()
    except ptpp.ParseError as exc:
        return str(exc)


def _load_samples(path):
    return ptpp.load_csv(path, 360.0).channels[0].samples


class TestNotUtf8:
    @pytest.mark.parametrize("tail,at", [
        (b"1,\xe2\x82\n2,0.5\n", 2),  # a broken three-byte character
        (b"1,0.5\n\xe2\x82", 6),  # a character cut off by the end
    ], ids=["broken", "cut_off"])
    def test_offset_counts_from_file_start(self, tmp_path, tail, at):
        # Past the first chunk that a text reader decodes.
        head = b"".join(b"%d,0.5\n" % i for i in range(20000))
        p = tmp_path / "t.csv"
        p.write_bytes(head + tail)
        with pytest.raises(ptpp.ParseError,
                           match=f"byte {len(head) + at}: not UTF-8"):
            ptpp.load_csv(p, 360.0)


class TestLoadCsvOracle:
    """``load_csv`` against its original per-line loop: same sample bytes or
    the same ParseError message, and nothing else escapes, warnings included.
    """

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(text=csv_texts())
    def test_matches_per_line_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = _read_either(load_csv_reference, path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _read_either(_load_samples, path)
        assert got == expected

    @pytest.mark.parametrize("text", [
        "", "sample_index,value\n", "0.5", "0,0.5\n", "\n\n0.5\n\n",
        "sample_index,value\n1,2,3\n", "value\n1,2,3\n4,5,6\n",
        "value\n0,1\n1,2\n", "sample_index,value\n1\n2\n",
        "\nabc,1\n", "h,v\n0,1\n2\n3\n",
    ])
    def test_edge_files_raise_no_warning(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (_read_either(_load_samples, path)
                    == _read_either(load_csv_reference, path))

    @pytest.mark.parametrize("text", [
        "sample_index,value\n0,0.5\n1,-0.25\n2,1e-05\n",
        "sample_index,value\r\n0,0.5\r\n1,-0.25\r\n",
        "0,0.5\n1,-0.25\n",
        "0.5\n-0.25\n\n3\n",
        "value\n0.5\n-0.25\n",
        "\n0.5\n",
        "\ufeff0.5\n-0.25\n",
        "\ufeffvalue\n0.5\n-0.25\n",
        "\ufeff0,0.5\n1,-0.25\n",
        "\n\t\r\n \rsample_index,value\n0,0.5\n1,-0.25\n",
    ])
    def test_well_formed_files_skip_the_line_loop(self, tmp_path, monkeypatch,
                                                  text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_csv_reference(path)

        def refuse(path):
            raise AssertionError("fell back to the per-line loop")

        monkeypatch.setattr(ptpp.io, "_parse_csv_lines", refuse)
        assert _load_samples(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [
        "\ufeff0.5\n1.0\n2.0\n",
        "\ufeffsample_index,value\n0,0.5\n1,1.0\n2,2.0\n",
        "\ufeff0,0.5\n1,1.0\n2,2.0\n",
    ], ids=["value", "header", "index_value"])
    def test_byte_order_mark_keeps_the_first_sample(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _load_samples(path).tolist() == [0.5, 1.0, 2.0]

    # numpy reads the last field of each line by its index, so a line with a
    # field too many is only seen by the comma count; the per-line reader
    # must then decide, as for a line with a field too few.
    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("header", ["", "sample_index,value\n"],
                             ids=["bare", "header"])
    def test_three_field_line_in_two_field_file(self, tmp_path, header, at):
        lines = [f"{i},{i / 4!r}" for i in range(5)]
        lines[at] = f"{at},9.5,{at / 4!r}"
        self._check_left_to_line_loop(tmp_path, header + "\n".join(lines))

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("header", ["", "value\n"], ids=["bare", "header"])
    def test_two_field_line_in_one_field_file(self, tmp_path, header, at):
        lines = [repr(i / 4) for i in range(5)]
        lines[at] = f"7,{at / 4!r}"
        self._check_left_to_line_loop(tmp_path, header + "\n".join(lines))

    def test_comma_header_then_one_field_lines(self, tmp_path):
        self._check_left_to_line_loop(
            tmp_path, "sample_index,value\n0.5\n-0.25\n1.0\n")

    @staticmethod
    def _check_left_to_line_loop(tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert ptpp.io._parse_csv_fast(path) is None
        assert (_read_either(_load_samples, path)
                == _read_either(load_csv_reference, path))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_peak_memory_below_per_line_loop(self, tmp_path, ending):
        # A 10-minute record at 360 Hz in the layout save_csv writes.
        values = np.random.default_rng(0).standard_normal(216_000)
        path = tmp_path / "long.csv"
        path.write_bytes(_join(["sample_index,value"] + [
            f"{i},{v!r}" for i, v in enumerate(values.tolist())],
            ending).encode("utf-8"))
        # The first read in a process also pays one-time costs (~90 kB) that
        # are not the C path's; a small file pays them before the trace.
        warm = tmp_path / "warm.csv"
        warm.write_text("sample_index,value\n0,0.5\n")
        _load_samples(warm)
        peaks = []
        for reader in (_load_samples, load_csv_reference):
            tracemalloc.start()
            try:
                reader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        fast, loop = peaks
        assert fast < loop
        # The C path holds the value column and little else: 1.05x on
        # numpy 2.4.6 with each ending, as the row bound is the line count,
        # and the rest of the bound is a ~90 kB margin.
        assert fast <= 1.1 * values.nbytes


def _rows(n, two_fields):
    return [f"{i},{i / 8!r}" if two_fields else repr(i / 8) for i in range(n)]


def _join(lines, ending):
    """``lines``, each ended by ``ending``, or by LF, CRLF and CR in turn
    when ``ending`` is None."""
    endings = [ending] if ending else ["\n", "\r\n", "\r"]
    return "".join(line + endings[k % len(endings)]
                   for k, line in enumerate(lines))


class TestLoadCsvByName:
    """Files past one of the 64 KiB blocks in which the C path counts commas
    and line breaks, and names numpy would decompress: the same sample bytes
    or the same ParseError as the per-line loop, with no warning, and
    well-formed files without the loop."""

    @staticmethod
    def _check(tmp_path, monkeypatch, data, name="t.csv", line_loop=False):
        path = tmp_path / name
        path.write_bytes(data)
        expected = _read_either(load_csv_reference, path)
        if not line_loop:
            def refuse(path):
                raise AssertionError("fell back to the per-line loop")
            monkeypatch.setattr(ptpp.io, "_parse_csv_lines", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_either(_load_samples, path) == expected
        return expected

    @pytest.mark.parametrize("final", [True, False],
                             ids=["final_break", "no_final_break"])
    @pytest.mark.parametrize("header", [True, False],
                             ids=["header", "no_header"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", None],
                             ids=["lf", "crlf", "cr", "mixed"])
    @pytest.mark.parametrize("two_fields", [True, False],
                             ids=["index_value", "value"])
    def test_line_endings(self, tmp_path, monkeypatch, two_fields, ending,
                          header, final):
        lines = _rows(12_000, two_fields)
        if header:
            lines.insert(0, "sample_index,value" if two_fields else "value")
        text = _join(lines, ending)
        if not final:
            text = text.rstrip("\r\n")
        data = text.encode("utf-8")
        assert len(data) > 1 << 16
        samples = self._check(tmp_path, monkeypatch, data)
        assert len(samples) == 12_000 * 8  # float64 bytes

    @pytest.mark.parametrize("at", [0, 6_000, 12_000],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("odd", ["", "   ", "\t"],
                             ids=["blank", "spaces", "tab"])
    @pytest.mark.parametrize("header", [True, False],
                             ids=["header", "no_header"])
    @pytest.mark.parametrize("ending", ["\r\n", None], ids=["crlf", "mixed"])
    def test_blank_and_whitespace_lines(self, tmp_path, monkeypatch, ending,
                                        header, odd, at):
        lines = _rows(12_000, True)
        lines[at:at] = [odd] * 3
        if header:
            lines.insert(0, "sample_index,value")
        # numpy skips an empty line but refuses a whitespace-only one.
        self._check(tmp_path, monkeypatch,
                    _join(lines, ending).encode("utf-8"), line_loop=odd != "")

    @pytest.mark.parametrize("header", [True, False],
                             ids=["header", "no_header"])
    def test_crlf_split_across_count_blocks(self, tmp_path, monkeypatch,
                                            header):
        block = ptpp.io._COUNT_BLOCK_BYTES
        head = "sample_index,value\r\n" if header else ""
        body = _join(_rows(6_000, True), "\r\n")
        # Zeros before the first index move the last CRLF that fits in the
        # first block until its CR is that block's last byte.
        pad = block - 1 - (head + body).encode().rfind(b"\r\n", 0, block)
        data = (head + "0" * pad + body).encode("utf-8")
        assert data[block - 1:block + 1] == b"\r\n"
        samples = self._check(tmp_path, monkeypatch, data)
        assert len(samples) == 6_000 * 8  # float64 bytes
        assert (ptpp.io._count_commas(tmp_path / "t.csv")
                == count_commas_reference(data))

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".xz", ".lzma"])
    def test_compressed_suffix_on_plain_text(self, tmp_path, monkeypatch,
                                             suffix):
        # Given such a name, numpy would decompress the file.
        samples = self._check(tmp_path, monkeypatch,
                              b"sample_index,value\n0,0.5\n1,-0.25\n",
                              name="r.csv" + suffix, line_loop=True)
        assert samples == np.array([0.5, -0.25]).tobytes()

    def test_gzip_file_refused_as_not_utf8(self, tmp_path):
        path = tmp_path / "r.csv.gz"
        path.write_bytes(gzip.compress(b"sample_index,value\n0,0.5\n",
                                       mtime=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ptpp.ParseError, match="byte 1: not UTF-8"):
                ptpp.load_csv(path, 360.0)


class TestCountCommas:
    """The comma and line count of the C path against ``bytes.count``, at
    block sizes small enough that every pair of bytes is split by a read."""

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        atoms=st.lists(st.sampled_from(
            ["\r\n", "\r", "\n\r", "\n", ",", "\ufeff", "0"]), max_size=40),
        block=st.integers(1, 7))
    def test_matches_bytes_count(self, atoms, block):
        data = "".join(atoms).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(data)
            mp.setattr(ptpp.io, "_COUNT_BLOCK_BYTES", block)
            got = ptpp.io._count_commas(path)
        assert got == count_commas_reference(data)
        assert all(type(n) is int for n in got)

    def test_peak_memory_is_a_few_blocks(self, tmp_path):
        # A 10-minute record at 360 Hz in the layout save_csv writes: the
        # pass holds a block and its mask, never the text.
        values = np.random.default_rng(0).standard_normal(216_000)
        path = tmp_path / "long.csv"
        path.write_text("sample_index,value\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(values.tolist())))
        assert path.stat().st_size > 40 * ptpp.io._COUNT_BLOCK_BYTES
        tracemalloc.start()
        try:
            ptpp.io._count_commas(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ptpp.io._COUNT_BLOCK_BYTES


# Values where repr's output changes shape: signed zero, the smallest
# subnormal, the switches to and from exponent form, the non-finite ones.
_WRITE_SPECIALS = [-0.0, 5e-324, 1e-05, 1e16, 9999999999999998.0,
                   math.nan, math.inf, -math.inf]
_WRITE_BLOCK = ptpp.io._WRITE_BLOCK_ROWS


@st.composite
def write_column(draw, n):
    """``n`` values, picked at random from a few drawn ones, as a float64,
    float32 or int64 array."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype is np.int64:
        values = st.integers(-2**63, 2**63 - 1) | st.sampled_from(
            [0, -1, 2**53 + 1, -2**63, 2**63 - 1])
    else:
        width = 64 if dtype is np.float64 else 32
        values = st.sampled_from(_WRITE_SPECIALS) | st.floats(width=width)
    pool = np.array(draw(st.lists(values, min_size=1, max_size=8)),
                    dtype=dtype)
    picks = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        0, len(pool), n)
    return pool[picks]


_WRITE_LENGTHS = (st.sampled_from([0, 1, _WRITE_BLOCK - 1, _WRITE_BLOCK,
                                   _WRITE_BLOCK + 1])
                  | st.integers(0, 3 * _WRITE_BLOCK + 2))


class TestWriteColumns:
    """The block writer behind ``stages`` and ``save_csv`` against the
    per-row writers it replaced: the same file bytes."""

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(data=st.data(), n=_WRITE_LENGTHS)
    def test_stages_match_per_row_writer(self, data, n):
        raw, filtered, derived, squared, smoothed, integrated = (
            data.draw(write_column(n)) for _ in range(6))
        if data.draw(st.booleans()):  # pt's stages pass squared as smoothed
            smoothed = squared
        stages = ptpp.StageOutputs(filtered, derived, squared, smoothed,
                                   integrated)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            ptpp.io._write_columns(got, STAGES_HEADER,
                                   [raw, filtered, derived, squared, smoothed,
                                    integrated])
            stages_writer_reference(want, raw, stages)
            assert got.read_bytes() == want.read_bytes()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(data=st.data(), n=_WRITE_LENGTHS)
    def test_save_csv_matches_per_line_writer(self, data, n):
        samples = data.draw(write_column(n))
        record = ptpp.Record(360.0, [ptpp.Channel("ecg", samples, 1.0, 0)], n)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            ptpp.save_csv(record, got)
            save_csv_reference(record, want)
            assert got.read_bytes() == want.read_bytes()

    def test_peak_memory_at_most_per_row_writer(self, tmp_path):
        # One 75 s record at 360 Hz, as the stages benchmark dumps it.
        record, _ = ptpp.synth_ecg(ptpp.SynthSpec(duration_s=75.0,
                                                  noise_snr_db=20.0, seed=1))
        samples = record.channels[0].samples
        stages = ptpp.run_pipeline(samples, record.sampling_rate_hz)
        columns = [samples, stages.filtered, stages.derived, stages.squared,
                   stages.smoothed, stages.integrated]
        peaks = []
        for write in (
                lambda path: ptpp.io._write_columns(path, STAGES_HEADER,
                                                    columns),
                lambda path: stages_writer_reference(path, samples, stages)):
            tracemalloc.start()
            try:
                write(tmp_path / "stages.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block, per_row = peaks
        assert block <= per_row


# ---------------------------------------------------------------------------
# WFDB headers

class TestParseHeader:
    def test_golden_mitbih_100(self):
        info = ptpp.parse_wfdb_header(GOLDEN_100_HEA, source="100.hea")
        assert info.record_name == "100"
        assert info.n_channels == 2
        assert info.sampling_rate_hz == 360.0
        assert info.n_samples == 650000
        assert [ch.label for ch in info.channels] == ["MLII", "V5"]
        assert all(ch.format_code == 212 for ch in info.channels)
        assert all(ch.gain == 200.0 for ch in info.channels)
        assert all(ch.baseline == 1024 for ch in info.channels)
        assert all(ch.file_name == "100.dat" for ch in info.channels)

    def test_counter_frequency_suffix(self):
        text = make_header("r", 0, 100, ["r.dat 212"]).replace(" 0 ", " 360/360 ")
        info = ptpp.parse_wfdb_header(text)
        assert info.sampling_rate_hz == 360.0

    def test_gain_with_baseline_and_units(self):
        text = make_header("r", 128, 10, ["r.dat 16 100.5(512)/mV 12 0 0 0 0 lead"])
        ch = ptpp.parse_wfdb_header(text).channels[0]
        assert ch.gain == 100.5
        assert ch.baseline == 512  # parenthesised baseline wins over adc zero
        assert ch.label == "lead"

    def test_missing_gain_defaults(self):
        info = ptpp.parse_wfdb_header(make_header("r", 250, 10, ["r.dat 212"]))
        assert info.channels[0].gain == 200.0
        assert info.channels[0].baseline == 0
        assert info.channels[0].label == "ch0"

    def test_zero_gain_replaced_by_default(self):
        info = ptpp.parse_wfdb_header(make_header("r", 250, 10, ["r.dat 212 0"]))
        assert info.channels[0].gain == 200.0

    @pytest.mark.parametrize("gain", [
        "e", ".", "+", "-", "1e", "+-1", "1.2.3", "e5", "1e999", "-1e999",
        "1e999(0)/mV"])
    def test_bad_gain_is_parse_error(self, gain):
        # The gain pattern admits these, but none is a finite number; 1e999
        # would make every sample -0.0 mV.
        text = make_header("r", 360, 10, [f"r.dat 212 {gain} 12 0 0 0 0 ml"])
        with pytest.raises(ptpp.ParseError,
                           match=f"line 2: bad gain field '{re.escape(gain)}'"):
            ptpp.parse_wfdb_header(text)

    def test_channel_count_mismatch(self):
        text = make_header("r", 360, 10, ["r.dat 212", "r.dat 212"])
        text = text.replace("r 2 ", "r 3 ")
        with pytest.raises(ptpp.ParseError, match="3 channel"):
            ptpp.parse_wfdb_header(text)

    def test_unknown_format_code_parses_then_fails_on_decode(self):
        info = ptpp.parse_wfdb_header(make_header("r", 360, 2, ["r.dat 999"]))
        assert info.channels[0].format_code == 999
        with pytest.raises(ptpp.UnsupportedFormatError):
            ptpp.decode_format212(b"\x00" * 3, info)

    def test_multi_sample_format_spec_rejected(self):
        with pytest.raises(ptpp.UnsupportedFormatError):
            ptpp.parse_wfdb_header(make_header("r", 360, 2, ["r.dat 212x2"]))

    def test_comments_ignored(self):
        text = "# leading comment\n" + make_header("r", 360, 4, ["r.dat 212"])
        assert ptpp.parse_wfdb_header(text).n_samples == 4


# ---------------------------------------------------------------------------
# Format 212

def _header_212(n_samples, n_channels, gain=1.0):
    lines = [f"r.dat 212 {gain:g} 12 0 0 0 0 ch{i}" for i in range(n_channels)]
    return ptpp.parse_wfdb_header(make_header("r", 360, n_samples, lines))


class TestFormat212:
    def test_hand_packed_pair(self):
        # 1000 = 0x3E8 and 995 = 0x3E3 pack to E8 | 33 | E3.
        data = bytes([0xE8, 0x33, 0xE3])
        assert encode212([1000, 995]) == data
        header = _header_212(2, 1, gain=200.0)
        rec = ptpp.decode_format212(data, header)
        np.testing.assert_allclose(rec.channels[0].samples, [5.0, 4.975])

    def test_all_zero_group(self):
        rec = ptpp.decode_format212(b"\x00\x00\x00", _header_212(2, 1))
        np.testing.assert_array_equal(rec.channels[0].samples, [0.0, 0.0])

    def test_sign_extension_of_0x800(self):
        rec = ptpp.decode_format212(encode212([0x800, 0]), _header_212(2, 1))
        assert rec.channels[0].samples[0] == -2048.0

    def test_all_4096_codes_match_oracle(self):
        codes = list(range(4096))
        rec = ptpp.decode_format212(encode212(codes), _header_212(4096, 1))
        expected = np.array([sign_extend_12(c) for c in codes], dtype=np.float64)
        np.testing.assert_array_equal(rec.channels[0].samples, expected)

    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 4096, size=2000)
        data = encode212(codes)
        rec = ptpp.decode_format212(data, _header_212(1000, 2))
        raw = np.stack([rec.channels[0].samples,
                        rec.channels[1].samples], axis=1).reshape(-1)
        re_encoded = encode212(int(v) & 0xFFF for v in raw.astype(np.int64))
        assert re_encoded == data

    def test_channels_deinterleaved(self):
        rec = ptpp.decode_format212(encode212([1, 2, 3, 4]), _header_212(2, 2))
        np.testing.assert_array_equal(rec.channels[0].samples, [1.0, 3.0])
        np.testing.assert_array_equal(rec.channels[1].samples, [2.0, 4.0])

    def test_baseline_and_gain_applied(self):
        header = _header_212(2, 1)
        header.channels[0] = header.channels[0]._replace(gain=100.0, baseline=10)
        rec = ptpp.decode_format212(encode212([110, 10]), header)
        np.testing.assert_allclose(rec.channels[0].samples, [1.0, 0.0])

    def test_odd_sample_count_ignores_pad(self):
        rec = ptpp.decode_format212(encode212([5, 6, 7]), _header_212(3, 1))
        np.testing.assert_array_equal(rec.channels[0].samples, [5.0, 6.0, 7.0])

    def test_truncated_stream(self):
        with pytest.raises(ptpp.ParseError, match="truncated"):
            ptpp.decode_format212(b"\x00" * 4, _header_212(4, 1))


class TestFormat16:
    def test_values_and_interleave(self):
        values = np.array([100, -100, 32767, -32768], dtype="<i2")
        header = ptpp.parse_wfdb_header(make_header(
            "r", 360, 2, ["r.dat 16 1 16 0 0 0 0 a", "r.dat 16 1 16 0 0 0 0 b"]))
        rec = ptpp.decode_format16(values.tobytes(), header)
        np.testing.assert_array_equal(rec.channels[0].samples, [100.0, 32767.0])
        np.testing.assert_array_equal(rec.channels[1].samples, [-100.0, -32768.0])

    def test_truncated_stream(self):
        header = ptpp.parse_wfdb_header(make_header("r", 360, 4, ["r.dat 16"]))
        with pytest.raises(ptpp.ParseError, match="truncated"):
            ptpp.decode_format16(b"\x00" * 6, header)


def _same_record(got: ptpp.Record, want: ptpp.Record) -> None:
    assert got.sampling_rate_hz == want.sampling_rate_hz
    assert got.duration_samples == want.duration_samples
    assert len(got.channels) == len(want.channels)
    for a, b in zip(got.channels, want.channels):
        assert (a.label, a.gain, a.baseline) == (b.label, b.gain, b.baseline)
        assert a.samples.dtype == b.samples.dtype
        assert a.samples.tobytes() == b.samples.tobytes()


def _decode_both(decode, reference, data, header):
    """Both decoders' records, or both their (type, message) errors."""
    out = []
    for fn in (decode, reference):
        try:
            out.append(fn(data, header))
        except ptpp.PtppError as exc:
            out.append((type(exc), str(exc)))
    return out


@st.composite
def wfdb_streams(draw, fmt):
    """A header for 1-4 channels of ``fmt`` with mixed gains and baselines,
    and random bytes sized to it: exact, a clipped final pad byte (format
    212, odd totals), a few spare bytes, or short by one."""
    n_channels = draw(st.integers(1, 4))
    n_samples = draw(st.integers(0, 300))
    gains = st.sampled_from(["200", "0", "-1.5", "1e-3"])
    lines = [f"r.dat {fmt} {draw(gains)}({draw(st.integers(-5000, 5000))})"
             f" 12 0 0 0 0 c{i}" for i in range(n_channels)]
    header = ptpp.parse_wfdb_header(make_header("r", 360, n_samples, lines))
    total = n_samples * n_channels
    exact = 3 * ((total + 1) // 2) if fmt == 212 else 2 * total
    size = max(0, exact + draw(st.sampled_from([0, -1, 1, 5])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes(), header


class TestDecoderReferences:
    """The decoders that unpack straight into integers equal the full-copy
    decoders they replaced, byte for byte, errors included."""

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(stream=wfdb_streams(212))
    def test_format212_matches_reference(self, stream):
        got, want = _decode_both(ptpp.decode_format212,
                                 decode_format212_reference, *stream)
        if isinstance(want, tuple):
            assert got == want
        else:
            _same_record(got, want)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(stream=wfdb_streams(16))
    def test_format16_matches_reference(self, stream):
        got, want = _decode_both(ptpp.decode_format16,
                                 decode_format16_reference, *stream)
        if isinstance(want, tuple):
            assert got == want
        else:
            _same_record(got, want)

    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4])
    def test_all_4096_codes_match_reference(self, n_channels):
        codes = list(range(4096 - 4096 % n_channels))
        header = _header_212(len(codes) // n_channels, n_channels, gain=200.0)
        data = encode212(codes)
        _same_record(ptpp.decode_format212(data, header),
                     decode_format212_reference(data, header))

    def test_clipped_pad_byte_on_odd_total(self):
        data = encode212([5, -6, 7])[:-1]  # the pad sample's last byte
        header = _header_212(3, 1)
        _same_record(ptpp.decode_format212(data, header),
                     decode_format212_reference(data, header))


# Tokens a header field may hold in the wild or by accident: digits int()
# refuses or cannot take in one piece, values past a float, format specs
# this reader does not take, and arbitrary short text.
_HOSTILE_TOKENS = st.one_of(
    st.sampled_from(["\u00b2", "\u0661\u0662", "9" * 5000, "1" + "0" * 400,
                     "200(" + "9" * 400 + ")", "200(" + "9" * 5000 + ")",
                     "1e999", "nan", "-0", "-1", "0", "212x2", "80",
                     "360/360", "200(0)/mV", "+5", "0x10"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=8).map(lambda t: "".join(t.split()) or "x"),
)
# The fields each header line has parsed (record line, signal line).
_PARSED_FIELDS = ((1, 2, 3), (1, 2, 4))


@st.composite
def fuzzed_headers(draw):
    """A valid 1-3 channel header of format 212 or 16 with up to three of
    its parsed fields swapped for hostile tokens and its signal lines cut
    short at random."""
    n = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(["212", "16"]))
    rows = [["r", str(n), "360", str(draw(st.integers(0, 40)))]]
    for i in range(n):
        cut = draw(st.integers(2, 9))
        rows.append(["r.dat", fmt, "200(1024)/mV", "12", "1024", "0", "0",
                     "0", f"c{i}"][:cut])
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, n))]
        fields = [f for f in _PARSED_FIELDS[row is not rows[0]]
                  if f < len(row)]
        if fields:
            row[draw(st.sampled_from(fields))] = draw(_HOSTILE_TOKENS)
    return "\n".join(" ".join(row) for row in rows) + "\n"


class TestParserFuzz:
    """Headers, signal bytes and annotation files, however malformed, give
    a result or a ``PtppError``; nothing else escapes."""

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(text=st.one_of(fuzzed_headers(), st.text(max_size=200)))
    def test_header_parser(self, text):
        try:
            ptpp.parse_wfdb_header(text)
        except ptpp.PtppError:
            pass

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(text=fuzzed_headers(), data=st.data())
    def test_decoders(self, text, data):
        try:
            header = ptpp.parse_wfdb_header(text)
        except ptpp.PtppError:
            return
        # Mostly enough bytes to get past the length check.
        need = min(2 * header.n_samples * header.n_channels, 512)
        payload = data.draw(st.binary(min_size=max(0, need - 2),
                                      max_size=need + 4))
        for decode in (ptpp.decode_format212, ptpp.decode_format16):
            try:
                decode(payload, header)
            except ptpp.PtppError:
                pass

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.one_of(
        st.binary(max_size=96),
        st.lists(st.tuples(st.sampled_from([0, 1, 5, 28, 45, 59, 60, 61,
                                            62, 63]),
                           st.integers(0, 1023), st.binary(max_size=4)),
                 max_size=24).map(lambda words: b"".join(
                     atr_word(c, d) + (extra if c == AtrStream.SKIP else b"")
                     for c, d, extra in words))))
    def test_atr_reader(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.atr"
            path.write_bytes(data)
            try:
                ann = ptpp.load_annotations(path)
            except ptpp.PtppError:
                return
        beats = ann.beat_samples
        assert beats.dtype == np.int64 and np.all(beats >= 0)
        assert np.all(np.diff(beats) > 0)
        assert len(ann.beat_labels) == len(beats)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        indices=st.lists(st.integers(0, 2 ** 70), max_size=6,
                         unique=True).map(sorted),
        junk=st.one_of(st.none(), st.tuples(st.integers(0, 6),
                                             st.text(max_size=6))))
    def test_plain_annotation_reader(self, indices, junk):
        lines = [str(i) for i in indices]
        if junk is not None:
            lines.insert(junk[0], junk[1])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.txt"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                ptpp.load_annotations(path)
            except ptpp.PtppError:
                pass


class TestParserFuzzRegressions:
    """Inputs the fuzz found that once ended in an untyped exception."""

    def test_non_ascii_digit_format_code(self):
        # "\u00b2".isdigit() is True, but int() refuses it (ValueError)
        with pytest.raises(ptpp.UnsupportedFormatError, match="format spec"):
            ptpp.parse_wfdb_header(make_header("r", 360, 2, ["r.dat \u00b2"]))

    @pytest.mark.parametrize("line", [
        "r.dat " + "2" * 5000,
        "r.dat 212 200(" + "1" * 5000 + ")",
    ], ids=["format_code", "explicit_baseline"])
    def test_integer_past_the_digit_limit(self, line):
        # int() refuses over 4300 digits with a ValueError
        with pytest.raises(ptpp.ParseError, match="bad integer field"):
            ptpp.parse_wfdb_header(make_header("r", 360, 2, [line]))

    def test_baseline_too_large_for_a_float(self):
        # it parsed, then the decoder's float subtraction overflowed
        line = "r.dat 212 200(" + "9" * 400 + ")"
        with pytest.raises(ptpp.ParseError, match="baseline"):
            ptpp.parse_wfdb_header(make_header("r", 360, 2, [line]))

    def test_plain_annotation_index_past_int64(self, tmp_path):
        # np.asarray(..., dtype=np.int64) raised OverflowError
        p = tmp_path / "a.txt"
        p.write_text(f"1\n{2 ** 63}\n")
        with pytest.raises(ptpp.ParseError, match="line 2.*int64"):
            ptpp.load_annotations(p)
        p.write_text(f"1\n{2 ** 63 - 1}\n")
        assert ptpp.load_annotations(p).beat_samples[-1] == 2 ** 63 - 1


class TestDecoderMemory:
    def test_format212_growth_within_1_6x_of_its_output(self):
        # Two leads of 10 min: besides the float64 leads, only one int32
        # copy of the samples (half their size) should exist at the peak.
        n = 360 * 600
        data = np.random.default_rng(9).integers(
            0, 256, size=3 * n, dtype=np.uint8).tobytes()
        header = _header_212(n, 2, gain=200.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = ptpp.decode_format212(data, header)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = sum(ch.samples.nbytes for ch in record.channels)
        assert output == 8 * 2 * n
        assert growth <= 1.6 * output

    def test_load_frees_the_byte_stream(self, tmp_path):
        # Two leads of 10 min in format 212: once decoded, the file's bytes
        # (1.5 per sample) go before the leads are built, so the peak is the
        # int32 counts and the float64 leads, 1.04x them here against 1.17x
        # with the bytes alive; the rest is the last lead's gap mask.
        n = 360 * 600
        codes = np.random.default_rng(4).integers(-2047, 2048, size=2 * n)
        lines = [f"r.dat 212 200 12 0 0 0 0 lead{i}" for i in range(2)]
        (tmp_path / "r.hea").write_text(make_header("r", 360, n, lines))
        (tmp_path / "r.dat").write_bytes(encode212(codes))
        ptpp.load_wfdb_record(tmp_path / "r.hea")  # first-call caches
        tracemalloc.start()
        try:
            ptpp.load_wfdb_record(tmp_path / "r.hea")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (4 + 8) * 2 * n


class TestLoadWfdbRecord:
    def _write_record(self, tmp_path, codes, n_channels=2, name="rec"):
        lines = [f"{name}.dat 212 200 11 1024 0 0 0 lead{i}"
                 for i in range(n_channels)]
        (tmp_path / f"{name}.hea").write_text(
            make_header(name, 360, len(codes) // n_channels, lines))
        (tmp_path / f"{name}.dat").write_bytes(encode212(codes))

    def test_end_to_end_millivolts(self, tmp_path):
        # raw 1224 with baseline 1024 and gain 200 is exactly +1 mV
        self._write_record(tmp_path, [1224, 1024, 824, 1024])
        rec = ptpp.load_wfdb_record(tmp_path / "rec.hea")
        assert rec.sampling_rate_hz == 360.0
        np.testing.assert_allclose(rec.channels[0].samples, [1.0, -1.0])
        np.testing.assert_allclose(rec.channels[1].samples, [0.0, 0.0])
        assert rec.channel_labels() == ["lead0", "lead1"]

    def test_bare_stem_accepted(self, tmp_path):
        self._write_record(tmp_path, [0, 0])
        rec = ptpp.load_wfdb_record(tmp_path / "rec")
        assert rec.duration_samples == 1

    @pytest.mark.parametrize("lines,error,message", [
        (["q.dat"], ptpp.ParseError,
         "line 2: signal line needs at least a file name and format code"),
        (["q.dat 212 200 12 0 0 0 0 MLII", "q.dat 16 200 16 0 0 0 0 V5"],
         ptpp.UnsupportedFormatError, r"mixed per-channel formats \[16, 212\]"),
    ])
    def test_header_refused_before_signal_read(self, tmp_path, lines, error,
                                               message):
        (tmp_path / "q.hea").write_text(make_header("q", 360, 10, lines))
        with pytest.raises(error, match=message):
            ptpp.load_wfdb_record(tmp_path / "q.hea")

    def test_unsupported_signal_format(self, tmp_path):
        (tmp_path / "r8.hea").write_text(make_header("r8", 360, 2, ["r8.dat 80"]))
        (tmp_path / "r8.dat").write_bytes(b"\x00\x00")
        with pytest.raises(ptpp.UnsupportedFormatError):
            ptpp.load_wfdb_record(tmp_path / "r8.hea")

    @pytest.mark.parametrize("fmt,code", [(212, -2048), (16, -32768)])
    @pytest.mark.parametrize("gain,baseline", [(200.0, 0), (137.3, -7),
                                               (0.1, 1024)])
    def test_gap_marker_refused(self, tmp_path, fmt, code, gain, baseline):
        raw = np.full((40, 2), code + 1, dtype=np.int64)  # its neighbour is data
        raw[0, 0] = code - 1 if fmt == 16 else 2047
        lines = [f"g.dat {fmt} {gain}({baseline}) 12 0 0 0 0 {label}"
                 for label in ("MLII", "V5")]
        (tmp_path / "g.hea").write_text(make_header("g", 360, 40, lines))

        def write(codes):
            data = (encode212(codes.ravel()) if fmt == 212
                    else codes.astype("<i2").tobytes())
            (tmp_path / "g.dat").write_bytes(data)

        write(raw)
        assert ptpp.load_wfdb_record(tmp_path / "g.hea").duration_samples == 40
        raw[17, 1] = raw[29, 0] = raw[31, 1] = code
        write(raw)
        with pytest.raises(ptpp.UnsupportedFormatError,
                           match=f"lead 'MLII' holds the format-{fmt} "
                                 rf"invalid-sample code {code} \(a signal "
                                 r"gap\) at sample 29"):
            ptpp.load_wfdb_record(tmp_path / "g.hea")

    @pytest.mark.parametrize("fmt", [212, 16])
    def test_gaps_are_found_on_counts(self, tmp_path, fmt):
        # At baseline 1e20 the counts next to the gap code round to its
        # millivolt value, so only the counts tell data from a gap.
        code = INVALID_SAMPLE[fmt]
        raw = np.array([[code + 1], [code + 2]])
        (tmp_path / "b.hea").write_text(make_header(
            "b", 360, 2, [f"b.dat {fmt} 200({10 ** 20}) 12 0 0 0 0 MLII"]))
        (tmp_path / "b.dat").write_bytes(
            encode212(raw.ravel()) if fmt == 212
            else raw.astype("<i2").tobytes())
        samples = ptpp.load_wfdb_record(tmp_path / "b.hea").channels[0].samples
        gap_mv = (np.float64(code) - 10 ** 20) / 200
        assert samples[0] == samples[1] == gap_mv


class TestMillivoltRange:
    """A gain that takes a lead's millivolts past the float range is a parse
    error naming the header, the lead and the gain, and no warning."""

    def _write(self, tmp_path, fmt, gain, codes):
        n = len(codes)
        lines = [f"r.dat {fmt} {gain} 12 0 0 0 0 {label}"
                 for label in ("MLII", "V5")]
        (tmp_path / "r.hea").write_text(make_header("r", 360, n, lines))
        raw = np.stack([np.zeros(n, dtype=np.int64), codes], axis=1)
        (tmp_path / "r.dat").write_bytes(
            encode212(raw.ravel()) if fmt == 212
            else raw.astype("<i2").tobytes())
        return tmp_path / "r.hea"

    @pytest.mark.parametrize("fmt", [212, 16])
    @pytest.mark.parametrize("gain", ["1e-306", "1e-320"])
    def test_refused_with_its_gain(self, tmp_path, fmt, gain):
        # 20 s of counts up to 1000, and no gap code among them.
        t = np.arange(7200) / 360.0
        codes = np.round(1000 * np.sin(2 * np.pi * 1.2 * t)).astype(np.int64)
        path = self._write(tmp_path, fmt, gain, codes)
        message = (f"lead 'V5': gain {float(gain)!r} takes samples outside "
                   f"the float range")
        with pytest.raises(ptpp.ParseError,
                           match=re.escape(f"{path}: {message}")):
            ptpp.load_wfdb_record(path)
        header = ptpp.parse_wfdb_header(path.read_text())
        decode = ptpp.decode_format212 if fmt == 212 else ptpp.decode_format16
        with pytest.raises(ptpp.ParseError, match=re.escape(message)):
            decode((tmp_path / "r.dat").read_bytes(), header)

    @pytest.mark.parametrize("fmt", [212, 16])
    def test_a_gap_is_named_first(self, tmp_path, fmt):
        code = INVALID_SAMPLE[fmt]
        path = self._write(tmp_path, fmt, "1e-320",
                           np.array([1000, code, 5], dtype=np.int64))
        with pytest.raises(ptpp.UnsupportedFormatError,
                           match="lead 'V5' holds .* at sample 1"):
            ptpp.load_wfdb_record(path)

    @pytest.mark.parametrize("fmt", [212, 16])
    def test_finite_extremes_load(self, tmp_path, fmt):
        low = -2047 if fmt == 212 else -32767
        path = self._write(tmp_path, fmt, "2e-304",
                           np.array([low, 1000, 0], dtype=np.int64))
        got = ptpp.load_wfdb_record(path).channels[1].samples
        assert got.tolist() == [low / 2e-304, 1000 / 2e-304, 0.0]


# ---------------------------------------------------------------------------
# Annotations

class TestPlainAnnotations:
    def test_direct_echo(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("18\n300\n650\n")
        ann = ptpp.load_annotations(p)
        np.testing.assert_array_equal(ann.beat_samples, [18, 300, 650])
        assert ann.beat_labels is None

    def test_non_monotonic_rejected(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("300\n18\n")
        with pytest.raises(ptpp.ParseError, match="increasing"):
            ptpp.load_annotations(p)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("# beats\n10\n\n20\n")
        np.testing.assert_array_equal(
            ptpp.load_annotations(p).beat_samples, [10, 20])

    def test_bad_line_cites_number(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("10\ntwenty\n")
        with pytest.raises(ptpp.ParseError, match="line 2"):
            ptpp.load_annotations(p)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("-5\n")
        with pytest.raises(ptpp.ParseError):
            ptpp.load_annotations(p)

    def test_save_round_trip(self, tmp_path):
        ann = ptpp.AnnotationSet(np.array([3, 99, 1000], dtype=np.int64),
                                 None, "synthetic")
        p = tmp_path / "out.ann"
        ptpp.save_annotations(ann, p)
        again = ptpp.load_annotations(p)
        np.testing.assert_array_equal(again.beat_samples, ann.beat_samples)


N = BEAT_CODE_BY_SYMBOL["N"]
V = BEAT_CODE_BY_SYMBOL["V"]


@st.composite
def atr_streams(draw):
    """An AtrStream of beat, non-beat and unknown codes, SKIPs of either
    sign, aux text and modifiers, terminated or not."""
    stream = AtrStream()
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["ann", "skip", "aux", "modifier"]))
        if kind == "ann":
            stream.ann(draw(st.sampled_from([N, V, 5, 28, 45, 0])),
                       draw(st.integers(0, 1023)))
        elif kind == "skip":
            stream.skip(draw(st.integers(-2 ** 31, 2 ** 31 - 1)))
        elif kind == "aux":
            stream.aux(draw(st.text("abc(", max_size=5)))
        else:
            stream.modifier(draw(st.sampled_from(["num", "sub", "chan"])),
                            draw(st.integers(0, 1023)))
    return stream.to_bytes(terminated=draw(st.booleans()))


class TestAtrAnnotations:
    def _load(self, tmp_path, stream: AtrStream, **kwargs):
        p = tmp_path / "rec.atr"
        p.write_bytes(stream.to_bytes())
        return ptpp.load_annotations(p, **kwargs)

    def test_interval_coding(self, tmp_path):
        ann = self._load(tmp_path, AtrStream().ann(N, 18).ann(N, 282))
        np.testing.assert_array_equal(ann.beat_samples, [18, 300])
        assert ann.beat_labels == ["N", "N"]
        assert ann.source_format == "wfdb_atr"

    def test_non_beat_codes_advance_time_but_drop(self, tmp_path):
        # code 28 is a recognised non-beat type: consumed, not reported
        ann = self._load(tmp_path, AtrStream().ann(N, 100).ann(28, 40).ann(V, 60))
        np.testing.assert_array_equal(ann.beat_samples, [100, 200])
        assert ann.beat_labels == ["N", "V"]

    def test_skip_interval_extends_next_delta(self, tmp_path):
        ann = self._load(tmp_path,
                         AtrStream().ann(N, 100).skip(100000).ann(N, 50))
        np.testing.assert_array_equal(ann.beat_samples, [100, 100150])

    def test_negative_skip(self, tmp_path):
        ann = self._load(tmp_path, AtrStream().ann(N, 500).skip(-30).ann(N, 50))
        np.testing.assert_array_equal(ann.beat_samples, [500, 520])

    def test_aux_text_is_transparent(self, tmp_path):
        for text in ("(AFIB", "even"):  # odd and even payload lengths
            ann = self._load(tmp_path,
                             AtrStream().ann(N, 10).aux(text).ann(N, 10))
            np.testing.assert_array_equal(ann.beat_samples, [10, 20])

    def test_modifier_words_are_transparent(self, tmp_path):
        s = AtrStream().ann(N, 10)
        for kind in ("num", "sub", "chan"):
            s.modifier(kind, 1)
        s.ann(N, 10)
        ann = self._load(tmp_path, s)
        np.testing.assert_array_equal(ann.beat_samples, [10, 20])

    def test_unknown_code_warns_and_time_still_advances(self, tmp_path, caplog):
        stream = AtrStream().ann(N, 100).ann(45, 20).ann(N, 30)
        with caplog.at_level("WARNING", logger="ptpp.io"):
            ann = self._load(tmp_path, stream)
        np.testing.assert_array_equal(ann.beat_samples, [100, 150])
        assert any("unknown" in r.message for r in caplog.records)

    def test_stream_terminator_stops_parsing(self, tmp_path):
        p = tmp_path / "rec.atr"
        p.write_bytes(AtrStream().ann(N, 10).to_bytes() + AtrStream().ann(N, 10).to_bytes(terminated=False))
        ann = ptpp.load_annotations(p)
        np.testing.assert_array_equal(ann.beat_samples, [10])

    def test_duplicate_beat_time_rejected(self, tmp_path):
        with pytest.raises(ptpp.ParseError, match="increasing"):
            self._load(tmp_path, AtrStream().ann(N, 100).ann(N, 0))

    def test_beat_symbol_filter(self, tmp_path):
        stream = AtrStream().ann(N, 10).ann(V, 10).ann(N, 10)
        ann = self._load(tmp_path, stream, beat_symbols=("V",))
        np.testing.assert_array_equal(ann.beat_samples, [20])
        assert ann.beat_labels == ["V"]

    def test_unknown_beat_symbol_rejected(self, tmp_path):
        with pytest.raises(ptpp.ParseError, match="unknown beat symbol"):
            self._load(tmp_path, AtrStream().ann(N, 10), beat_symbols=("Z",))

    def test_truncated_skip_operand(self, tmp_path):
        p = tmp_path / "rec.atr"
        # a SKIP word with its two operand words missing
        p.write_bytes(AtrStream().ann(N, 10).to_bytes(terminated=False)
                      + atr_word(AtrStream.SKIP, 0))
        with pytest.raises(ptpp.ParseError, match="skip"):
            ptpp.load_annotations(p)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        data=st.one_of(
            st.binary(max_size=96),
            # Well-formed streams, cut anywhere: odd lengths and SKIP words
            # missing their operands included.
            st.tuples(atr_streams(), st.integers(0, 200)).map(
                lambda s: s[0][:len(s[0]) - s[1]] if s[1] < len(s[0])
                else s[0])),
        symbols=st.sets(st.sampled_from(sorted(BEAT_CODE_BY_SYMBOL)),
                        min_size=1))
    def test_matches_per_word_reference(self, data, symbols):
        beat_codes = {BEAT_CODE_BY_SYMBOL[s]: s for s in symbols}
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.atr"
            path.write_bytes(data)
            for load in (ptpp.io._load_atr_annotations, load_atr_reference):
                with mock.patch.object(ptpp.io, "logger") as log:
                    try:
                        ann = load(path, beat_codes)
                        outcome = (ann.beat_samples.tolist(),
                                   ann.beat_samples.dtype, ann.beat_labels,
                                   ann.source_format)
                    except ptpp.PtppError as exc:
                        outcome = (type(exc), str(exc))
                outcomes.append((outcome, log.mock_calls))
        assert outcomes[0] == outcomes[1]

    def test_format_override(self, tmp_path):
        p = tmp_path / "beats.bin"
        p.write_bytes(AtrStream().ann(N, 42).to_bytes())
        ann = ptpp.load_annotations(p, format="wfdb_atr")
        np.testing.assert_array_equal(ann.beat_samples, [42])

    def test_unknown_format_name(self, tmp_path):
        p = tmp_path / "beats.txt"
        p.write_text("1\n")
        with pytest.raises(ptpp.ParseError):
            ptpp.load_annotations(p, format="csv")
