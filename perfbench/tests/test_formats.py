"""The benchmark's writers round-trip exactly through the ptpp readers."""

import numpy as np

import formats
import ptpp


def test_wfdb212_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    n = 1001  # odd sample count per lead; two leads keep the total even
    lead1 = rng.normal(0.0, 2.0, n)
    lead1[:4] = [20.0, -20.0, 10.235, -10.235]  # clipped to +/-2047 counts
    lead2 = rng.normal(0.0, 0.5, n)
    header, expected = formats.write_wfdb212(
        tmp_path, "rec", 360.0, [("MLII", lead1), ("V5", lead2)])
    record = ptpp.load_wfdb_record(header)
    assert record.sampling_rate_hz == 360.0
    assert record.channel_labels() == ["MLII", "V5"]
    for col, channel in enumerate(record.channels):
        assert np.array_equal(channel.samples, expected[:, col])
    assert expected[0, 0] == 2047 / formats.WFDB_GAIN
    assert expected[1, 0] == -2047 / formats.WFDB_GAIN


def test_wfdb212_odd_total_round_trip(tmp_path):
    lead = np.linspace(-1.0, 1.0, 7)
    header, expected = formats.write_wfdb212(tmp_path, "one", 250.0,
                                             [("II", lead)])
    record = ptpp.load_wfdb_record(header)
    assert np.array_equal(record.channels[0].samples, expected[:, 0])


def test_atr_round_trip_including_skips(tmp_path):
    beats = np.array([0, 5, 300, 1023, 1024 + 1023, 5000, 80_000, 80_001])
    path = tmp_path / "rec.atr"
    formats.write_atr(path, beats)
    loaded = ptpp.load_annotations(path)
    assert loaded.source_format == "wfdb_atr"
    assert loaded.beat_samples.tolist() == beats.tolist()
    assert loaded.beat_labels == ["N"] * len(beats)


def test_csv_round_trip(tmp_path):
    samples = formats.quantize_uv(
        np.random.default_rng(1).normal(0.0, 1.0, 5000))
    samples[:3] = [-0.0, 1e-3, -12.5]
    path = tmp_path / "rec.csv"
    formats.write_csv(path, samples)
    record = ptpp.load_csv(path, sampling_rate_hz=360.0)
    assert np.array_equal(record.channels[0].samples, samples)
    assert len(path.read_text().splitlines()) == len(samples) + 1
