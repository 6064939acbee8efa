"""Bit-exact file formats: field files, CSV series, JSON reports.

A field file is one UTF-8 header line holding a JSON object

    {"dim": 1, "n": 512, "epsilon": 0.7, "kind": "w", "byte_order": "LE",
     "dtype": "f64"}

terminated by a newline, followed by the raw row-major little-endian
float64 payload. Write-then-read is bit-identical. Scalar series are
RFC-4180 CSV (CRLF line ends) with 17-significant-digit floats, which
round-trip binary64 exactly. All writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .errors import ConfigError
from .grid import PeriodicGrid, ScalarField

_FIELD_DTYPE = np.dtype("<f8")


def atomic_write_bytes(path: str, payload: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_field(path: str, field: ScalarField, epsilon: float, kind: str):
    header = {
        "dim": field.grid.dim,
        "n": field.grid.n,
        "epsilon": float(epsilon),
        "kind": kind,
        "byte_order": "LE",
        "dtype": "f64",
    }
    body = np.ascontiguousarray(field.values, dtype=_FIELD_DTYPE).tobytes("C")
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n" + body)


def read_field(path: str):
    """Returns (ScalarField, header dict)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read field file: {exc}")
    nl = blob.find(b"\n")
    if nl < 0:
        raise ConfigError(f"{path}: missing field-file header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: bad field-file header: {exc}")
    if not isinstance(header, dict) or any(type(header.get(k)) is not int for k in ("dim", "n")):
        raise ConfigError(f"{path}: header is not a JSON object with integer dim and n: {header}")
    if header.get("dtype") != "f64" or header.get("byte_order") != "LE":
        raise ConfigError(f"{path}: unsupported field encoding {header}")
    grid = PeriodicGrid(header["dim"], header["n"])
    expect = grid.n**grid.dim * _FIELD_DTYPE.itemsize
    body = blob[nl + 1 :]
    if len(body) != expect:
        raise ConfigError(
            f"{path}: payload is {len(body)} bytes, header implies {expect}"
        )
    values = np.frombuffer(body, dtype=_FIELD_DTYPE).reshape(grid.shape).copy()
    return ScalarField(grid, values), header


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str, columns, rows):
    """RFC-4180 CSV; floats rendered with 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(columns))
    for row in rows:
        writer.writerow(
            [
                format_float(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            ]
        )
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def write_json(path: str, obj):
    text = json.dumps(obj, indent=2, sort_keys=True)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"))
