"""The benchmark's own input writers: WFDB format 212 + header, MIT binary
annotations and plain CSV traces.

They are written here rather than borrowed from ``ptpp.io`` so that no
change to the program's writers can alter the bytes a workload reads.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

WFDB_GAIN = 200.0  # ADC counts per mV, the MIT-BIH convention
ADC_MAX = 2047  # -2048 is the format-212 invalid-sample sentinel; never write it
BEAT_CODE_N = 1
_SKIP = 59


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def quantize_counts(samples_mv: np.ndarray, gain: float = WFDB_GAIN) -> np.ndarray:
    counts = np.rint(np.asarray(samples_mv, dtype=np.float64) * gain)
    return np.clip(counts, -ADC_MAX, ADC_MAX).astype(np.int64)


def pack212(flat_counts: np.ndarray) -> bytes:
    """Two 12-bit two's-complement samples per 3 bytes, odd tail zero-padded."""
    vals = np.asarray(flat_counts, dtype=np.int64) & 0xFFF
    if len(vals) % 2:
        vals = np.append(vals, 0)
    a, b = vals[0::2], vals[1::2]
    out = np.empty((len(a), 3), dtype=np.uint8)
    out[:, 0] = a & 0xFF
    out[:, 1] = ((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4)
    out[:, 2] = b & 0xFF
    return out.tobytes()


def write_wfdb212(directory: str | Path, name: str, fs: float,
                  leads: list[tuple[str, np.ndarray]]) -> tuple[Path, np.ndarray]:
    """Write ``<name>.hea`` + ``<name>.dat`` (all leads interleaved, format 212).

    Returns the header path and the samples in millivolts exactly as a
    correct reader decodes them (counts / gain), one column per lead.
    """
    directory = Path(directory)
    counts = np.stack([quantize_counts(x) for _, x in leads], axis=1)
    n = counts.shape[0]
    (directory / f"{name}.dat").write_bytes(pack212(counts.reshape(-1)))
    lines = [f"{name} {len(leads)} {fs:g} {n}"]
    for col, (label, _) in enumerate(leads):
        checksum = int(counts[:, col].sum()) & 0xFFFF
        checksum = checksum - 0x10000 if checksum >= 0x8000 else checksum
        lines.append(f"{name}.dat 212 {WFDB_GAIN:g} 12 0 {int(counts[0, col])} "
                     f"{checksum} 0 {label}")
    header = directory / f"{name}.hea"
    header.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return header, counts / WFDB_GAIN


def _word(code: int, delta: int) -> bytes:
    return bytes([delta & 0xFF, ((delta >> 8) & 0x03) | ((code & 0x3F) << 2)])


def write_atr(path: str | Path, beat_samples, code: int = BEAT_CODE_N) -> None:
    """MIT binary annotations: one beat word per sample index; gaps wider
    than the 10-bit delta field go through a SKIP word, then an end word."""
    chunks = []
    previous = 0
    for sample in np.asarray(beat_samples, dtype=np.int64).tolist():
        delta = sample - previous
        if delta < 0:
            raise ValueError("beat samples must be increasing")
        if delta > 0x3FF:
            value = delta & 0xFFFFFFFF
            hi, lo = value >> 16, value & 0xFFFF
            chunks.append(_word(_SKIP, 0))
            chunks.append(bytes([hi & 0xFF, hi >> 8]))
            chunks.append(bytes([lo & 0xFF, lo >> 8]))
            delta = 0
        chunks.append(_word(code, delta))
        previous = sample
    chunks.append(b"\x00\x00")
    Path(path).write_bytes(b"".join(chunks))


def quantize_uv(samples_mv: np.ndarray) -> np.ndarray:
    """Round to whole microvolts, as an exported trace would be; the short
    decimal forms then round-trip exactly through ``repr``/``float``."""
    return np.round(np.asarray(samples_mv, dtype=np.float64), 3)


def write_csv(path: str | Path, samples: np.ndarray) -> None:
    """``sample_index,value`` header then one ``index,value`` line per sample."""
    body = "".join([f"{i},{v!r}\n" for i, v in enumerate(samples.tolist())])
    Path(path).write_text("sample_index,value\n" + body, encoding="utf-8")
