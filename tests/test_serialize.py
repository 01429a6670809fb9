import os

import numpy as np
import pytest

from tailaug import synth
from tailaug.errors import DataError
from tailaug.serialize import read_blob, read_json, write_blob, write_json


def test_roundtrip_values_and_meta(tmp_path):
    path = tmp_path / "x.bin"
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    b = np.array([1.5], dtype=np.float32)
    write_blob(path, {"mat": a, "scalar": b}, meta={"note": "hi", "n": 3})
    sections, meta = read_blob(path)
    np.testing.assert_array_equal(sections["mat"], a.astype(np.float32))
    np.testing.assert_array_equal(sections["scalar"], b)
    assert meta == {"note": "hi", "n": 3}


def test_deterministic_bytes(tmp_path):
    arrs = {"w": np.ones((2, 2)), "b": np.zeros(3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_blob(p1, arrs, meta={"k": 1})
    write_blob(p2, dict(reversed(arrs.items())), meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()  # section order is canonical


def test_checksum_detects_corruption(tmp_path):
    path = tmp_path / "x.bin"
    write_blob(path, {"w": np.ones(4)}, meta={})
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        read_blob(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTABLOBxxxxxxxx")
    with pytest.raises(DataError, match="magic"):
        read_blob(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_blob(tmp_path / "nope.bin")


@pytest.mark.parametrize("damage", ["short", "garbled-header", "huge-length"])
def test_damaged_header_is_data_error(tmp_path, damage):
    path = tmp_path / "x.bin"
    write_blob(path, {"w": np.ones(4)}, meta={"note": "hi"})
    raw = bytearray(path.read_bytes())
    if damage == "short":
        raw = raw[:10]
    elif damage == "garbled-header":
        raw[17:19] = b"\xff\xff"
    else:
        raw[8:16] = np.uint64(1 << 40).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_blob(path)


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"a": ', b"[1, 2]"])
def test_bad_json_is_data_error(tmp_path, raw):
    path = tmp_path / "x.json"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        read_json(path)


@pytest.mark.parametrize("write", [
    lambda p: write_json(p, {"new": 1}),
    lambda p: write_blob(p, {"w": np.zeros(2)}, meta={}),
    lambda p: synth.write_csv(p, synth.generate_interactions(n_users=30, n_items=20, seed=7)),
])
def test_failed_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents")

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)  # fails after the bytes are written
    with pytest.raises(DataError, match="cannot write"):
        write(path)
    assert path.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["artifact"]
