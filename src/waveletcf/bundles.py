"""Deterministic on-disk container for arrays plus scalar metadata.

np.savez embeds zip timestamps, which breaks byte-identical reruns, so
caches and checkpoints use this container instead: a magic line, a JSON
metadata header (sorted keys), then raw .npy blocks in manifest order.
Writing the same payload twice produces identical bytes.
"""

import io
import json
import os
from tokenize import TokenError

import numpy as np

from .errors import DataError

MAGIC = b"waveletcf-bundle v1\n"


def _encode(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def save_bundle(path, meta: dict, arrays: dict) -> None:
    """Write scalar metadata and named float/int arrays to `path`.

    The bundle is written to `path + ".tmp"`, synced, then renamed over
    `path`, so a crash mid-write leaves any earlier bundle intact.
    """
    names = sorted(arrays)
    header = json.dumps(
        {"meta": meta, "arrays": names}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "big"))
            fh.write(header)
            for name in names:
                block = _encode(arrays[name])
                fh.write(len(block).to_bytes(8, "big"))
                fh.write(block)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_block(fh, what: str) -> bytes:
    raw = fh.read(8)
    length = int.from_bytes(raw, "big")
    if len(raw) != 8 or length > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"truncated {what}")
    return fh.read(length)


def load_bundle(path):
    """Read a bundle back as (meta, arrays). Raises DataError on corruption.

    A block must be exactly what `save_bundle` writes for the native-order
    bool, int or float array it decodes to. There is no checksum, so a
    corrupted value or name that still parses loads as read.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise DataError(f"{path}: not a waveletcf bundle (bad or missing magic)")
            header = _read_block(fh, f"header in {path}")
            try:
                spec = json.loads(header.decode("utf-8"))
                meta, names = spec["meta"], spec["arrays"]
            except (ValueError, TypeError, KeyError) as exc:
                raise DataError(f"{path}: corrupt header ({exc})") from exc
            if not isinstance(meta, dict) or not isinstance(names, list):
                raise DataError(f"{path}: corrupt header")
            arrays = {}
            for name in names:
                block = _read_block(fh, f"block for array '{name}' in {path}")
                try:
                    array = np.lib.format.read_array(io.BytesIO(block))
                except (ValueError, OverflowError, SyntaxError, TokenError) as exc:
                    raise DataError(f"{path}: corrupt array '{name}' ({exc})") from exc
                if array.dtype.kind not in "biuf" or not array.dtype.isnative:
                    raise DataError(f"{path}: array '{name}' has dtype {array.dtype}")
                if _encode(array) != block:
                    raise DataError(f"{path}: corrupt array '{name}'")
                arrays[name] = array
    except OSError as exc:
        raise DataError(f"cannot read bundle {path}: {exc}") from exc
    return meta, arrays
