"""Signal and annotation ingestion.

Supports plain CSV traces, WFDB header/signal pairs (formats 212 and 16)
and reference beat annotations in either plain-text or MIT binary form.
All amplitudes are converted to millivolts on load using each channel's
gain/baseline so downstream stages never see raw ADC counts.
"""

from __future__ import annotations

import codecs
import logging
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParseError, PtppError, UnsupportedFormatError

logger = logging.getLogger(__name__)

WFDB_DEFAULT_GAIN = 200.0  # counts per mV when the header omits the gain
# The code each supported signal format stores for a sample that was not
# recorded.
INVALID_SAMPLE = {212: -2048, 16: -32768}

# MIT annotation type codes for beat classes, keyed by their display symbol.
# Everything else in an annotation file (rhythm changes, signal quality notes,
# waveform boundaries, ...) is not a beat and is dropped on load.
BEAT_CODE_BY_SYMBOL = {
    "N": 1, "L": 2, "R": 3, "a": 4, "V": 5, "F": 6, "J": 7, "A": 8,
    "S": 9, "E": 10, "j": 11, "/": 12, "Q": 13, "B": 25, "e": 34,
    "n": 35, "x": 37, "f": 38, "r": 41,
}
DEFAULT_BEAT_SYMBOLS = frozenset(
    "N L R B A a J S V r F e j n E / f Q".split()
)
# Non-beat codes we recognise and silently skip (as opposed to unknown codes,
# which are counted and reported).
_KNOWN_NONBEAT_CODES = {
    0, 14, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 30,
    31, 32, 33, 36, 37, 39, 40,
}
_SKIP, _NUM, _SUB, _CHAN, _AUX = 59, 60, 61, 62, 63


class Channel(NamedTuple):
    label: str
    samples: np.ndarray  # float64, millivolts
    gain: float
    baseline: int


@dataclass
class Record:
    """A multichannel trace with a single shared sampling rate."""

    sampling_rate_hz: float
    channels: list[Channel]
    duration_samples: int

    def channel_labels(self) -> list[str]:
        return [ch.label for ch in self.channels]


class ChannelHeader(NamedTuple):
    file_name: str
    format_code: int
    gain: float
    baseline: int
    label: str


@dataclass
class HeaderInfo:
    record_name: str
    n_channels: int
    sampling_rate_hz: float
    n_samples: int
    channels: list[ChannelHeader]


@dataclass
class AnnotationSet:
    """Reference beat locations as sample indices into one record."""

    beat_samples: np.ndarray  # int64, strictly increasing
    beat_labels: Optional[list[str]]
    source_format: str


def load_csv(path: str | Path, sampling_rate_hz: float) -> Record:
    """Read a single-channel trace where each line is ``value`` or ``index,value``.

    A well-formed file is parsed by numpy's C reader in one call; anything
    it cannot take as is goes through the per-line reader, which decides
    what is accepted and how errors are reported.

    Raises:
        ParseError: empty file, malformed line (with its line number), a
            non-finite sample value or bytes that are not UTF-8.
    """
    path = Path(path)
    try:  # the C path takes a decode error for a miss, so map it here
        samples = _parse_csv_fast(path)
        if samples is None:
            samples = _parse_csv_lines(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    channel = Channel(label="ecg", samples=samples, gain=1.0, baseline=0)
    return Record(sampling_rate_hz=float(sampling_rate_hz),
                  channels=[channel], duration_samples=len(samples))


def _not_utf8(path: str | Path,
             error: type[PtppError] = ParseError) -> PtppError:
    """``error`` for a text file that failed to decode, naming the file
    offset of its first byte that is not UTF-8. A text reader decodes in
    chunks and reports offsets within one, so the file is decoded again."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 16)
            held = len(decoder.getstate()[0])  # a character split by the read
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                offset += exc.start - held
                break
            if not block:
                break
            offset += len(block)
    return error(f"{path}: byte {offset}: not UTF-8 text")


def read_text(path: str | Path, error: type[PtppError] = ParseError) -> str:
    """A whole UTF-8 text file; other bytes raise ``error`` (see
    :func:`_not_utf8`)."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path, error) from None


# Suffixes on which numpy, given a file name, decompresses the file
# (``numpy.lib._datasource``); the per-line reader reads such a file as text.
_COMPRESSED_SUFFIXES = frozenset({".bz2", ".gz", ".xz", ".lzma"})


def _parse_csv_fast(path: Path) -> Optional[np.ndarray]:
    """Samples of a file with one field count throughout, or None.

    The first non-blank line is read by hand: it is a header when its last
    field is not a float, as in :func:`_parse_csv_lines`, and its field count
    is the count every line must have. Then one ``np.loadtxt`` call reads the
    file by its name, skipping the lines up to a header, and parses only the
    last field of each line, with ``PyOS_string_to_double``, the routine
    behind ``float()``, so a value it reads has the same bytes. Given a name,
    numpy reads the text in chunks rather than a Python string per line; its
    row bound, the file's line count (see :func:`_count_commas`), lets it
    reserve the rows at once, and no more rows than the file has lines,
    instead of growing the array among those chunks. numpy refuses a line
    with fewer fields but skips extra ones, so the file must also hold
    exactly one comma fewer than the field count per sample, besides the
    header's. None means the per-line reader must decide: the name has a
    compressed suffix, numpy refused a line, the field count changed, or a
    sample is missing or non-finite.
    """
    if path.suffix in _COMPRESSED_SUFFIXES:
        return None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for consumed, line in enumerate(fh, start=1):
            fields = line.strip().split(",")
            if fields != [""]:
                break
        else:
            return None
    if len(fields) > 2:
        return None
    try:
        float(fields[-1])
    except ValueError:  # a header row: numpy reads on from the next line
        header_commas, skip = len(fields) - 1, consumed
    else:
        header_commas, skip = 0, 0
    commas, lines = _count_commas(path)
    try:
        with warnings.catch_warnings():
            # A header-only file leaves numpy nothing, and a blank line is
            # not a row; neither is something to warn about.
            warnings.filterwarnings(
                "ignore", r"(loadtxt: input|Input line \d+) contained no data",
                UserWarning)
            samples = np.loadtxt(str(path), delimiter=",", comments=None,
                                 dtype=np.float64, encoding="utf-8-sig",
                                 skiprows=skip, max_rows=lines,
                                 usecols=len(fields) - 1, ndmin=1)
    except ValueError:
        return None
    # NaN propagates through min and max, so both are finite only when
    # every sample is, and no mask the size of the column is made.
    if (not len(samples) or not math.isfinite(samples.min())
            or not math.isfinite(samples.max())
            or commas != header_commas + (len(fields) - 1) * len(samples)):
        return None
    return samples


# Bytes per read in the comma and line-break count of the C path.
_COUNT_BLOCK_BYTES = 1 << 16


def _count_commas(path: Path) -> tuple[int, int]:
    """The commas in a file and its universal-newline line count: one more
    than its ``\\n`` and ``\\r`` bytes, less its ``\\r\\n`` pairs. The file is
    read into one reused block, through one reused mask, so the text is
    never held whole; ``\\r`` and ``\\r\\n`` are counted only in blocks that
    hold a ``\\r``."""
    buf = bytearray(_COUNT_BLOCK_BYTES)
    view = np.frombuffer(buf, dtype=np.uint8)
    mask = np.empty(len(buf), dtype=bool)
    comma, lf, cr = ord(","), ord("\n"), ord("\r")
    commas = breaks = 0
    ends_in_cr = False  # the previous block's last byte was a \r
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            block, hit = view[:n], mask[:n]
            commas += np.count_nonzero(np.equal(block, comma, out=hit))
            breaks += np.count_nonzero(np.equal(block, lf, out=hit))
            if ends_in_cr and buf[0] == lf:  # a \r\n split by the read
                breaks -= 1
            if buf.find(b"\r", 0, n) >= 0:
                breaks += (np.count_nonzero(np.equal(block, cr, out=hit))
                           - buf.count(b"\r\n", 0, n))
            ends_in_cr = buf[n - 1] == cr
    return int(commas), int(breaks) + 1


def _parse_csv_lines(path: Path) -> np.ndarray:
    """The per-line reader: slow, lenient where ``float()`` is, exact errors."""
    values = []
    first_content_line = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) > 2:
                raise ParseError(f"{path}: line {lineno}: expected 'value' or "
                                 f"'index,value', got {line!r}")
            try:
                value = float(fields[-1])
            except ValueError:
                if first_content_line:  # a column-header row is fine
                    first_content_line = False
                    continue
                raise ParseError(
                    f"{path}: line {lineno}: not a number: {fields[-1]!r}"
                ) from None
            first_content_line = False
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}: non-finite sample")
            values.append(value)
    if not values:
        raise ParseError(f"{path}: no samples found")
    return np.asarray(values, dtype=np.float64)


_GAIN_RE = re.compile(r"^([-+0-9.eE]+)(?:\(([-+]?\d+)\))?(?:/(\S*))?$")


def _parse_signal_line(line: str, lineno: int, source: str) -> ChannelHeader:
    tokens = line.split()
    if len(tokens) < 2:
        raise ParseError(f"{source}: line {lineno}: signal line needs at least "
                         f"a file name and format code")

    def _int(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit too
            raise ParseError(f"{source}: line {lineno}: bad integer field "
                             f"{text!r}") from None

    file_name = tokens[0]
    fmt_token = tokens[1]
    if not (fmt_token.isascii() and fmt_token.isdigit()):
        # Samples-per-frame ("212x2"), skew (":") and byte offsets ("+") are
        # legal in the wild but outside what this reader handles.
        raise UnsupportedFormatError(
            f"{source}: line {lineno}: unsupported format spec {fmt_token!r}")
    format_code = _int(fmt_token)

    gain = WFDB_DEFAULT_GAIN
    explicit_baseline: Optional[int] = None
    if len(tokens) > 2:
        m = _GAIN_RE.match(tokens[2])
        try:  # the pattern also admits "e", "+", "1e" and "1e999" (inf)
            gain = float(m.group(1)) if m else math.nan
        except ValueError:
            gain = math.nan
        if not math.isfinite(gain):
            raise ParseError(
                f"{source}: line {lineno}: bad gain field {tokens[2]!r}")
        if m.group(2) is not None:
            explicit_baseline = _int(m.group(2))
    if gain == 0.0:
        gain = WFDB_DEFAULT_GAIN

    adc_zero = _int(tokens[4]) if len(tokens) > 4 else 0
    baseline = explicit_baseline if explicit_baseline is not None else adc_zero
    try:
        float(baseline)  # the decoders subtract it from float64 samples
    except OverflowError:
        raise ParseError(f"{source}: line {lineno}: baseline {baseline} is "
                         f"too large") from None
    label = " ".join(tokens[8:]) if len(tokens) > 8 else ""
    return ChannelHeader(file_name=file_name, format_code=format_code,
                         gain=gain, baseline=baseline, label=label)


def parse_wfdb_header(text: str, source: str = "<header>") -> HeaderInfo:
    """Parse WFDB header text into record metadata plus per-channel fields.

    The first non-comment line must be ``name n_channels fs n_samples``;
    it is followed by one signal line per channel. ``#`` comment lines and
    blanks are ignored anywhere.
    """
    record_line = None
    signal_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if record_line is None:
            record_line = (lineno, line)
        else:
            signal_lines.append((lineno, line))
    if record_line is None:
        raise ParseError(f"{source}: no record line found")

    lineno, line = record_line
    tokens = line.split()
    if len(tokens) < 4:
        raise ParseError(f"{source}: line {lineno}: record line must be "
                         f"'name n_channels fs n_samples'")
    name = tokens[0]
    try:
        n_channels = int(tokens[1])
        # A counter frequency may ride along as "360/..." -- keep the rate.
        fs = float(tokens[2].split("/")[0])
        n_samples = int(tokens[3])
    except ValueError:
        raise ParseError(f"{source}: line {lineno}: bad record line "
                         f"{line!r}") from None
    if n_channels < 1:
        raise ParseError(f"{source}: line {lineno}: channel count must be >= 1")
    if not 0 < fs < math.inf:  # rejects NaN too
        raise ParseError(f"{source}: line {lineno}: sampling rate must be "
                         f"finite and > 0, got {tokens[2]!r}")
    if n_samples < 0:
        raise ParseError(f"{source}: line {lineno}: negative sample count")

    if len(signal_lines) != n_channels:
        raise ParseError(
            f"{source}: declared {n_channels} channel(s) but found "
            f"{len(signal_lines)} signal line(s)")
    channels = [_parse_signal_line(line, lineno, source)
                for lineno, line in signal_lines]
    for i, ch in enumerate(channels):
        if not ch.label:
            channels[i] = ch._replace(label=f"ch{i}")
    return HeaderInfo(record_name=name, n_channels=n_channels,
                      sampling_rate_hz=fs, n_samples=n_samples,
                      channels=channels)


def _to_millivolts(counts: np.ndarray, header: HeaderInfo,
                   source: str) -> Record:
    """The counts in millivolts, one lead at a time, so only one float64
    lead exists beyond those already converted. A lead whose gain takes a
    sample past the float range raises :class:`ParseError`."""
    channels = []
    for i, ch in enumerate(header.channels):
        mv = counts[:, i].astype(np.float64)
        mv -= ch.baseline
        with np.errstate(over="ignore"):  # an overflow is refused below
            mv /= ch.gain
        # No sample is NaN, so the extremes are finite exactly when every
        # sample is, and no mask the size of the lead is made.
        if len(mv) and not (math.isfinite(mv.min())
                            and math.isfinite(mv.max())):
            raise ParseError(f"{source}: lead {ch.label!r}: gain {ch.gain!r} "
                             f"takes samples outside the float range")
        channels.append(Channel(label=ch.label, samples=mv,
                                gain=ch.gain, baseline=ch.baseline))
    return Record(sampling_rate_hz=header.sampling_rate_hz,
                  channels=channels, duration_samples=counts.shape[0])


def _decode_counts(data: bytes, header: HeaderInfo, fmt: int) -> np.ndarray:
    """The ``(n_samples, n_channels)`` int counts of a format-212 or
    format-16 stream, after checking each channel's format and the length."""
    for ch in header.channels:
        if ch.format_code != fmt:
            raise UnsupportedFormatError(
                f"channel {ch.label!r} declares format {ch.format_code}, "
                f"expected {fmt}")
    total = header.n_samples * header.n_channels
    need = (3 * total + 1) // 2 if fmt == 212 else 2 * total
    if len(data) < need:
        raise ParseError(f"truncated format-{fmt} stream: have {len(data)} "
                         f"bytes, need {need} (failed at byte {len(data)})")
    if fmt == 16:
        flat = np.frombuffer(data, dtype="<i2", count=total)
        return flat.reshape(header.n_samples, header.n_channels)
    pairs = (total + 1) // 2  # format 212: see decode_format212
    buf = np.frombuffer(data, dtype=np.uint8, count=min(len(data), 3 * pairs))
    if len(buf) < 3 * pairs:  # tolerate a clipped final pad byte
        buf = np.concatenate([buf, np.zeros(3 * pairs - len(buf), np.uint8)])
    # Straight into one int32 array: the high bits go in by a shift, the
    # low byte by an in-place or, from strided views of the bytes.
    flat = np.empty(2 * pairs, dtype=np.int32)
    first, second = flat[0::2], flat[1::2]
    np.left_shift(buf[1::3] & 0x0F, 8, out=first, dtype=np.int32)
    first |= buf[0::3]
    np.left_shift(buf[1::3] & 0xF0, 4, out=second, dtype=np.int32)
    second |= buf[2::3]
    flat = flat[:total]
    flat <<= 20  # sign-extend from bit 11: move it to bit 31 and back
    flat >>= 20
    return flat.reshape(header.n_samples, header.n_channels)


def decode_format212(data: bytes, header: HeaderInfo) -> Record:
    """Unpack bit-packed 12-bit sample pairs into a millivolt Record.

    Every 3 bytes hold two 12-bit two's-complement samples: the first is
    byte0 plus the low nibble of byte1 as its high bits, the second is
    byte2 plus the high nibble of byte1 as its high bits.
    """
    return _to_millivolts(_decode_counts(data, header, 212), header,
                          header.record_name)


def decode_format16(data: bytes, header: HeaderInfo) -> Record:
    """Decode little-endian 16-bit samples (WFDB format 16)."""
    return _to_millivolts(_decode_counts(data, header, 16), header,
                          header.record_name)


def load_wfdb_record(header_path: str | Path) -> Record:
    """Load a record given its ``.hea`` path (or the bare record stem)."""
    header_path = Path(header_path)
    if header_path.suffix != ".hea":
        header_path = header_path.with_suffix(".hea")
    header = parse_wfdb_header(read_text(header_path),
                               source=str(header_path))
    file_names = {ch.file_name for ch in header.channels}
    if len(file_names) != 1:
        raise UnsupportedFormatError(
            f"{header_path}: channels spread over multiple signal files "
            f"({sorted(file_names)}) are not supported")
    formats = {ch.format_code for ch in header.channels}
    if len(formats) != 1:
        raise UnsupportedFormatError(
            f"{header_path}: mixed per-channel formats {sorted(formats)}")
    data = (header_path.parent / file_names.pop()).read_bytes()
    fmt = formats.pop()
    if fmt not in INVALID_SAMPLE:
        raise UnsupportedFormatError(f"{header_path}: signal format {fmt} is "
                                     f"not supported (only 212 and 16)")
    counts = _decode_counts(data, header, fmt)
    # Format 212 decodes into an int32 array of its own, so the bytes can go
    # now; format 16's counts are a view of them and keep them alive.
    del data
    code = INVALID_SAMPLE[fmt]
    for i, ch in enumerate(header.channels):
        gap = counts[:, i] == code
        if gap.any():
            raise UnsupportedFormatError(
                f"{header_path}: lead {ch.label!r} holds the format-{fmt} "
                f"invalid-sample code {code} (a signal gap) at sample "
                f"{int(gap.argmax())}; records with gaps are not supported")
    return _to_millivolts(counts, header, str(header_path))


def _load_plain_annotations(path: Path) -> AnnotationSet:
    indices = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx = int(line)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: not an integer "
                                 f"sample index: {line!r}") from None
            if idx < 0:
                raise ParseError(f"{path}: line {lineno}: negative index")
            if idx > np.iinfo(np.int64).max:  # beats are held as int64
                raise ParseError(f"{path}: line {lineno}: index {idx} does "
                                 f"not fit in int64")
            if indices and idx <= indices[-1]:
                raise ParseError(f"{path}: line {lineno}: indices must be "
                                 f"strictly increasing")
            indices.append(idx)
    return AnnotationSet(beat_samples=np.asarray(indices, dtype=np.int64),
                         beat_labels=None, source_format="plain_text")


def _load_atr_annotations(path: Path, beat_codes: dict[int, str]) -> AnnotationSet:
    data = path.read_bytes()
    indices: list[int] = []
    labels: list[str] = []
    time = 0
    pending_skip = 0
    unknown = 0
    i = 0
    n = len(data) // 2  # word i is data[2i:2i + 2]; an odd last byte is unread
    while i < n:
        b0, b1 = data[2 * i], data[2 * i + 1]
        code = b1 >> 2
        delta = b0 | ((b1 & 0x03) << 8)
        if code == 0 and delta == 0:  # end of annotation stream
            break
        if code == _SKIP:
            if i + 2 >= n:
                raise ParseError(f"{path}: truncated skip interval at word {i}")
            hi = data[2 * i + 2] << 16 | data[2 * i + 3] << 24
            lo = data[2 * i + 4] | data[2 * i + 5] << 8
            value = hi | lo
            if value > 0x7FFFFFFF:
                value -= 0x100000000
            pending_skip += value
            i += 3
            continue
        if code == _AUX:
            i += 1 + (delta + 1) // 2  # aux text is padded to a whole word
            continue
        if code in (_NUM, _SUB, _CHAN):
            i += 1
            continue
        time += pending_skip + delta
        pending_skip = 0
        if time < 0:
            raise ParseError(f"{path}: annotation time went negative at word {i}")
        if code in beat_codes:
            if indices and time <= indices[-1]:
                raise ParseError(f"{path}: beat samples not strictly "
                                 f"increasing at word {i}")
            indices.append(time)
            labels.append(beat_codes[code])
        elif code not in _KNOWN_NONBEAT_CODES:
            unknown += 1
        i += 1
    if unknown:
        logger.warning("%s: skipped %d annotation(s) with unknown type codes",
                       path, unknown)
    return AnnotationSet(beat_samples=np.asarray(indices, dtype=np.int64),
                         beat_labels=labels, source_format="wfdb_atr")


def load_annotations(path: str | Path, format: str = "auto",
                     beat_symbols: Sequence[str] = DEFAULT_BEAT_SYMBOLS,
                     ) -> AnnotationSet:
    """Read reference beats from a plain-text or MIT binary annotation file.

    Args:
        path: annotation file.
        format: ``plain_text``, ``wfdb_atr`` or ``auto`` (by file suffix:
            ``.atr``/``.qrs`` mean the binary form).
        beat_symbols: which beat classes to keep when reading binary
            annotations; defaults to all beat classes.
    """
    path = Path(path)
    if format == "auto":
        format = "wfdb_atr" if path.suffix in (".atr", ".qrs") else "plain_text"
    if format == "plain_text":
        try:
            return _load_plain_annotations(path)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if format == "wfdb_atr":
        unknown_symbols = set(beat_symbols) - set(BEAT_CODE_BY_SYMBOL)
        if unknown_symbols:
            raise ParseError(f"unknown beat symbol(s): {sorted(unknown_symbols)}")
        beat_codes = {BEAT_CODE_BY_SYMBOL[s]: s for s in beat_symbols}
        return _load_atr_annotations(path, beat_codes)
    raise ParseError(f"unknown annotation format {format!r}")


# Rows per write in _write_columns. A block's floats and lines are all alive
# at once; 256-row blocks were no measurably faster on a stages dump, but
# raised its peak RSS by ~0.1 MB.
_WRITE_BLOCK_ROWS = 64


def _write_columns(path: str | Path, header: Sequence[str],
                   columns: Sequence[np.ndarray]) -> None:
    """Write ``header``, then one ``index,repr(value),...`` line per sample of
    the equal-length ``columns``, each value cast to float64 first."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    line = "{}" + ",{!r}" * len(columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            rows = range(start, start + _WRITE_BLOCK_ROWS)
            block = [c[start:rows.stop].tolist() for c in columns]
            if len(block) == 1:  # an f-string beats str.format on one column
                lines = [f"{i},{v!r}\n" for i, v in zip(rows, block[0])]
            else:
                lines = map(line.format, rows, *block)
            fh.write("".join(lines))


def save_csv(record: Record, path: str | Path, channel: int = 0) -> None:
    """Write one channel as ``index,value`` lines readable by load_csv."""
    _write_columns(path, ["sample_index", "value"],
                   [record.channels[channel].samples])


def save_annotations(annotations: AnnotationSet, path: str | Path) -> None:
    """Write beats as plain-text sample indices, one per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for idx in annotations.beat_samples:
            fh.write(f"{int(idx)}\n")
