"""File formats: binary time-series records and trace CSV/JSON export.

Time-series format (little-endian throughout):

    offset 0   magic  "SQTS" (4 bytes)
    offset 4   u32    version, currently 1
    offset 8   f64    sample_rate in Hz, in (0, inf)
    offset 16  u64    n_samples
    offset 24  u64    seed
    offset 32  f64[n_samples] samples

A CSV file is a header line, then comma-joined rows of .10g numbers; trace
CSV's header is ``freq_hz,value_db``. Trace JSON carries the fields freqs,
values_db, rbw, vbw.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .dsp import TimeSeries, Trace

__all__ = [
    "MAGIC",
    "VERSION",
    "TimeSeriesFormatError",
    "write_timeseries",
    "read_timeseries",
    "write_csv",
    "write_trace_csv",
    "write_trace_json",
    "read_trace_json",
]

MAGIC = b"SQTS"
VERSION = 1
_HEADER = struct.Struct("<4sIdQQ")  # magic, version, sample_rate, n_samples, seed


class TimeSeriesFormatError(ValueError):
    """Malformed time-series file; the message names the byte offset."""


def write_timeseries(path, ts: TimeSeries) -> None:
    header = _HEADER.pack(MAGIC, VERSION, ts.sample_rate, len(ts), ts.seed)
    with open(path, "wb") as f:
        f.write(header)
        np.ascontiguousarray(ts.samples, dtype="<f8").tofile(f)


def read_timeseries(path) -> TimeSeries:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise TimeSeriesFormatError(
                f"truncated header: file is {size} bytes, need {_HEADER.size} "
                f"(at byte offset {size})"
            )
        magic, version, sample_rate, n_samples, seed = _HEADER.unpack(f.read(_HEADER.size))
        if magic != MAGIC:
            raise TimeSeriesFormatError(
                f"bad magic {magic!r} at byte offset 0, expected {MAGIC!r}"
            )
        if version != VERSION:
            raise TimeSeriesFormatError(
                f"unsupported version {version} at byte offset 4, expected {VERSION}"
            )
        if not 0 < sample_rate < np.inf:
            raise TimeSeriesFormatError(
                f"bad sample rate {sample_rate!r} at byte offset 8, expected one in (0, inf)"
            )
        expected = _HEADER.size + 8 * n_samples
        if size == expected:
            samples = np.fromfile(f, dtype="<f8", count=n_samples)
            size = _HEADER.size + 8 * samples.size  # less if cut since fstat
        if size != expected:
            offset = min(size, expected)
            raise TimeSeriesFormatError(
                f"sample payload mismatch at byte offset {offset}: header promises "
                f"{n_samples} samples ({expected} bytes total), file has {size} bytes"
            )
    return TimeSeries(sample_rate=sample_rate, samples=samples, seed=seed)


def write_csv(path, header: str, columns) -> Path:
    """One header line, then one row per index of the columns, each value
    formatted .10g."""
    lines = [header] + [",".join(f"{v:.10g}" for v in row) for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def write_trace_csv(path, trace: Trace) -> Path:
    return write_csv(path, "freq_hz,value_db", (trace.freqs, trace.values_db))


def write_trace_json(path, trace: Trace) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=2, allow_nan=False) + "\n")


def trace_to_dict(trace: Trace) -> dict:
    return {
        "freqs": trace.freqs.tolist(),
        "values_db": trace.values_db.tolist(),
        "rbw": trace.rbw,
        "vbw": trace.vbw,
    }


def read_trace_json(path) -> Trace:
    doc = json.loads(Path(path).read_text())
    return Trace(
        freqs=np.asarray(doc["freqs"], dtype=float),
        values_db=np.asarray(doc["values_db"], dtype=float),
        rbw=float(doc["rbw"]),
        vbw=float(doc["vbw"]),
    )
