import json

import numpy as np
import pytest

from sqzsim import (
    Spectrum,
    TimeSeries,
    TimeSeriesFormatError,
    Trace,
    read_timeseries,
    read_trace_json,
    synthesize,
    write_timeseries,
    write_trace_csv,
    write_trace_json,
)
from sqzsim.fileio import MAGIC, VERSION


@pytest.fixture
def ts():
    return synthesize(Spectrum.flat(1.0), 1e6, 2**10, 77)


def test_timeseries_round_trip(tmp_path, ts):
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    back = read_timeseries(path)
    assert back.sample_rate == ts.sample_rate
    assert back.seed == ts.seed
    assert back.samples.tobytes() == ts.samples.tobytes()


def test_timeseries_write_is_byte_stable(tmp_path, ts):
    p1, p2 = tmp_path / "a.sqts", tmp_path / "b.sqts"
    write_timeseries(p1, ts)
    write_timeseries(p2, ts)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_names_offset_zero(tmp_path, ts):
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(TimeSeriesFormatError, match="offset 0"):
        read_timeseries(path)


def test_bad_version_names_offset_four(tmp_path, ts):
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(TimeSeriesFormatError, match="offset 4"):
        read_timeseries(path)


def test_truncated_header(tmp_path, ts):
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TimeSeriesFormatError, match="truncated header"):
        read_timeseries(path)


@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -1.0])
def test_bad_sample_rate_names_offset_eight(tmp_path, ts, rate):
    # TimeSeries takes an infinite rate, but no record can have one
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    raw = bytearray(path.read_bytes())
    raw[8:16] = np.float64(rate).astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(TimeSeriesFormatError,
                       match=rf"^bad sample rate {rate!r} at byte offset 8, expected one in"):
        read_timeseries(path)


def test_truncated_payload_names_offset(tmp_path, ts):
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    full = path.read_bytes()
    path.write_bytes(full[:-16])
    with pytest.raises(TimeSeriesFormatError, match=f"offset {len(full) - 16}"):
        read_timeseries(path)


def test_header_layout(tmp_path):
    ts = TimeSeries(sample_rate=2.5e7, samples=np.array([1.0, -2.0]), seed=42)
    path = tmp_path / "rec.sqts"
    write_timeseries(path, ts)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == VERSION
    assert np.frombuffer(raw[8:16], "<f8")[0] == 2.5e7
    assert int.from_bytes(raw[16:24], "little") == 2
    assert int.from_bytes(raw[24:32], "little") == 42
    assert np.frombuffer(raw[32:], "<f8").tolist() == [1.0, -2.0]


def test_trace_csv_format(tmp_path):
    trace = Trace(np.array([1e5, 2e5]), np.array([-3.0, -4.5]), rbw=1e4, vbw=1e2)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "freq_hz,value_db"
    assert lines[1] == "100000,-3"
    assert len(lines) == 3


def test_trace_json_round_trip(tmp_path):
    trace = Trace(np.array([1e5, 2e5]), np.array([-3.0, -4.5]), rbw=1e4, vbw=1e2)
    path = tmp_path / "trace.json"
    write_trace_json(path, trace)
    doc = json.loads(path.read_text())
    assert set(doc) == {"freqs", "values_db", "rbw", "vbw"}
    back = read_trace_json(path)
    assert np.array_equal(back.freqs, trace.freqs)
    assert np.array_equal(back.values_db, trace.values_db)
    assert back.rbw == trace.rbw and back.vbw == trace.vbw


def test_trace_json_refuses_non_finite_values(tmp_path):
    # JSON has no NaN; json.loads would read one back as a float
    trace = Trace(np.array([1e5, 2e5]), np.array([-3.0, np.nan]), rbw=1e4, vbw=1e2)
    path = tmp_path / "trace.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_trace_json(path, trace)
    assert not path.exists()


def test_trace_json_refuses_non_finite_frequencies(tmp_path):
    # json.loads reads NaN and Infinity, which the strictly ascending grid
    # must not hold
    path = tmp_path / "trace.json"
    path.write_text('{"freqs": [1e5, NaN, 3e5], "values_db": [0, 0, 0], "rbw": 1, "vbw": 1}')
    with pytest.raises(ValueError, match="^freqs must be finite, got nan at index 1$"):
        read_trace_json(path)
