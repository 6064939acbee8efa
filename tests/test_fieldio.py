import json
import os

import numpy as np
import pytest

from fracpm import fieldio
from fracpm.errors import ConfigError
from fracpm.grid import PeriodicGrid, ScalarField


def sample_field(dim=1, n=64, seed=0):
    grid = PeriodicGrid(dim, n)
    return ScalarField(grid, np.random.default_rng(seed).standard_normal(grid.shape))


def test_field_roundtrip_bit_identical(tmp_path):
    f = sample_field(2, 32)
    p1 = tmp_path / "a.field"
    p2 = tmp_path / "b.field"
    fieldio.write_field(str(p1), f, 0.7, "test")
    back, header = fieldio.read_field(str(p1))
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)  # exact, not approximate
    assert header["epsilon"] == 0.7
    assert header["kind"] == "test"
    fieldio.write_field(str(p2), back, header["epsilon"], header["kind"])
    assert p1.read_bytes() == p2.read_bytes()


def test_field_header_is_json_line(tmp_path):
    f = sample_field()
    path = tmp_path / "x.field"
    fieldio.write_field(str(path), f, 0.3, "w")
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")
    meta = json.loads(head)
    assert meta["dim"] == 1 and meta["n"] == 64
    assert meta["byte_order"] == "LE" and meta["dtype"] == "f64"
    assert len(payload) == 64 * 8


def test_read_rejects_corrupt_payload(tmp_path):
    f = sample_field()
    path = tmp_path / "x.field"
    fieldio.write_field(str(path), f, 0.3, "w")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop one value
    with pytest.raises(ConfigError):
        fieldio.read_field(str(path))


def test_read_rejects_foreign_dtype(tmp_path):
    path = tmp_path / "x.field"
    header = {"dim": 1, "n": 4, "epsilon": 0.3, "kind": "w",
              "byte_order": "BE", "dtype": "f64"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        fieldio.read_field(str(path))


def test_read_missing_file():
    with pytest.raises(ConfigError):
        fieldio.read_field("/nonexistent/path.field")


def test_csv_format_is_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    fieldio.write_csv(str(path), ("t", "value"), [(0.1, 1.0 / 3.0), (0.2, 2.0)])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().split("\r\n")
    assert lines[0] == "t,value"
    # 17 significant digits survive the text roundtrip exactly
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0


def test_format_float_shortest_exact():
    for x in (1.0 / 3.0, 1e-300, -0.0, 123456.789):
        assert float(fieldio.format_float(x)) == x


def test_write_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fieldio.write_json(str(p1), {"b": 1, "a": [1, 2]})
    fieldio.write_json(str(p2), {"a": [1, 2], "b": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    f = sample_field()
    fieldio.write_field(str(tmp_path / "x.field"), f, 0.3, "w")
    fieldio.write_json(str(tmp_path / "r.json"), {"k": 1})
    assert sorted(os.listdir(tmp_path)) == ["r.json", "x.field"]


def test_failed_write_removes_its_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        fieldio.atomic_write_bytes(str(target), b"payload")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
