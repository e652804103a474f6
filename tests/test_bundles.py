"""Tests for the bundle container: corruption maps to DataError, writes are atomic."""

import re

import numpy as np
import pytest

from waveletcf.bundles import (
    MAGIC,
    load_artifact,
    load_bundle,
    save_artifact,
    save_bundle,
)
from waveletcf.errors import DataError

META = {"kind": "x", "q": 3, "tol": 1e-9}


def arrays():
    return {
        "a": np.arange(3, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 4).reshape(2, 2),
    }


def content_offsets(data):
    """Offsets of the bytes only a checksum could vouch for.

    These are the header's JSON tokens other than punctuation (metadata
    keys and values, array names) and the raw array payloads.
    """
    start = len(MAGIC) + 8
    header_len = int.from_bytes(data[len(MAGIC): start], "big")
    header = data[start: start + header_len].decode("utf-8")
    offsets = {start + i for i, ch in enumerate(header) if ch not in '{}[]:,"'}
    pos = start + header_len
    for name, array in sorted(arrays().items()):
        pos += 8 + int.from_bytes(data[pos: pos + 8], "big")
        offsets.update(range(pos - array.nbytes, pos))
    return offsets


# a flipped dtype code can hit numpy's deprecated aliases on the way to DataError
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_every_truncation_and_bit_flip_is_a_data_error(tmp_path):
    good_path = tmp_path / "good.bundle"
    save_bundle(good_path, META, arrays())
    good = good_path.read_bytes()
    content = content_offsets(good)
    p = tmp_path / "bad.bundle"

    for cut in range(len(good)):
        p.write_bytes(good[:cut])
        with pytest.raises(DataError):
            load_bundle(p)

    loaded_from = set()
    for offset in range(len(good)):
        for bit in range(8):
            bad = bytearray(good)
            bad[offset] ^= 1 << bit
            p.write_bytes(bytes(bad))
            try:
                meta, loaded = load_bundle(p)
            except DataError:
                continue
            assert offset in content, (offset, bit)
            loaded_from.add(offset)
            assert len(meta) == len(META)
            assert [(v.dtype, v.shape) for v in loaded.values()] == [
                (v.dtype, v.shape) for _, v in sorted(arrays().items())
            ]
    # payload bytes carry no checksum: flipping one of b's values loads
    assert set(range(len(good) - arrays()["b"].nbytes, len(good))) <= loaded_from


def test_save_is_atomic(tmp_path, monkeypatch):
    p = tmp_path / "x.bundle"
    save_bundle(p, META, arrays())
    before = p.read_bytes()

    real = np.lib.format.write_array
    calls = []

    def write_array(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("simulated crash while writing the second array")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", write_array)
    with pytest.raises(DataError, match="cannot write .*simulated crash"):
        save_bundle(p, {"kind": "y"}, arrays())
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["x.bundle"]


def test_artifact_header_is_checked(tmp_path):
    p = tmp_path / "a.bundle"
    floats = {name: a.astype(np.float64) for name, a in arrays().items()}
    save_artifact(p, "thing", 2, {"dataset_hash": "d" * 64, "q": 3}, floats)
    meta, loaded = load_artifact(p, "thing", 2, "d" * 64)
    assert (meta["kind"], meta["version"], meta["q"]) == ("thing", 2, 3)
    assert np.array_equal(loaded["b"], arrays()["b"])
    assert load_artifact(p, "thing", 2)[0]["q"] == 3
    for args, message in (
        (("other", 2), "not a other"),
        (("thing", 3), "thing version 2 unsupported"),
        (("thing", 2, "e" * 64), "thing was built for dataset dddddddddddd"),
    ):
        with pytest.raises(DataError, match=message):
            load_artifact(p, *args)
    # the container holds any native bool, int or float array; an artifact
    # holds float64 arrays only
    save_artifact(p, "thing", 2, {}, arrays())
    assert load_bundle(p)[1]["a"].dtype == np.int64
    message = f"{p}: 'a' has dtype int64, expected float64"
    with pytest.raises(DataError, match=re.escape(message)):
        load_artifact(p, "thing", 2)
