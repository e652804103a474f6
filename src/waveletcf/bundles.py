"""Deterministic on-disk container for arrays plus scalar metadata.

np.savez embeds zip timestamps, which breaks byte-identical reruns, so
caches and checkpoints use this container instead: a magic line, a JSON
metadata header (sorted keys), then raw .npy blocks in manifest order.
Writing the same payload twice produces identical bytes. An artifact's
header names its kind and format version (`save_artifact`), and
`load_artifact` is the one place that checks them and that every array
is float64. `write_atomic` is the one durable write path, shared by
bundles, the canonical dataset and the evaluation report.
"""

import io
import json
import os
from tokenize import TokenError

import numpy as np

from .errors import ConfigError, DataError

MAGIC = b"waveletcf-bundle v1\n"


def _encode(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def write_atomic(path, chunks) -> None:
    """Write the byte strings of `chunks` to `path` durably and atomically.

    They go to `path + ".tmp"`, which is synced, then renamed over `path`,
    so a crash mid-write leaves any earlier file at `path` intact and no
    `.tmp` behind. A path that cannot be written raises DataError.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_bundle(path, meta: dict, arrays: dict) -> None:
    """Write scalar metadata and named float/int arrays to `path`, atomically
    (see `write_atomic`)."""
    names = sorted(arrays)
    header = json.dumps(
        {"meta": meta, "arrays": names}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    def chunks():
        yield MAGIC
        yield len(header).to_bytes(8, "big")
        yield header
        for name in names:
            block = _encode(arrays[name])
            yield len(block).to_bytes(8, "big")
            yield block

    write_atomic(path, chunks())


def _read_block(fh, what: str) -> bytes:
    raw = fh.read(8)
    length = int.from_bytes(raw, "big")
    if len(raw) != 8 or length > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"truncated {what}")
    return fh.read(length)


class _Entries(dict):
    """A bundle's arrays or a JSON object of its header. Looking up a key
    the bundle lacks raises DataError naming the bundle and the key, so
    each reader's direct indexing doubles as its check for a required key."""

    def __init__(self, path, entries):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise DataError(f"{self.path}: missing key '{key}'")


def load_bundle(path):
    """Read a bundle back as (meta, arrays). Raises DataError on corruption.

    A block must be exactly what `save_bundle` writes for the native-order
    bool, int or float array it decodes to. There is no checksum, so a
    corrupted value or name that still parses loads as read. Indexing
    `meta` (at any depth) or `arrays` with a key the bundle lacks raises
    DataError.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise DataError(f"{path}: not a waveletcf bundle (bad or missing magic)")
            header = _read_block(fh, f"header in {path}")
            try:
                spec = json.loads(
                    header.decode("utf-8"), object_hook=lambda d: _Entries(path, d)
                )
                meta, names = spec["meta"], spec["arrays"]
            except (ValueError, TypeError) as exc:
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
    return meta, _Entries(path, arrays)


def save_artifact(path, kind: str, version: int, meta: dict, arrays: dict) -> None:
    """`save_bundle` with `kind` and `version` added to the metadata."""
    save_bundle(path, {**meta, "kind": kind, "version": version}, arrays)


def load_artifact(path, kind: str, version: int, dataset_hash: str = None):
    """Load a bundle written by `save_artifact` as (meta, arrays).

    Raises DataError unless the header names `kind` and `version`, when
    `dataset_hash` is given, records that dataset hash, and every array is
    float64: a DataError names the first other array and its dtype.
    """
    meta, arrays = load_bundle(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} (kind {meta.get('kind')!r})")
    if meta.get("version") != version:
        raise DataError(
            f"{path}: {kind} version {meta.get('version')} unsupported "
            f"(expected {version})"
        )
    if dataset_hash is not None and meta["dataset_hash"] != dataset_hash:
        built_for = str(meta["dataset_hash"])[:12]
        raise DataError(
            f"{path}: {kind} was built for dataset {built_for}..., "
            f"not {dataset_hash[:12]}..."
        )
    for name, array in arrays.items():
        if array.dtype != np.float64:
            raise DataError(f"{path}: '{name}' has dtype {array.dtype}, expected float64")
    return meta, arrays


def refuse_unread(arrays, read) -> None:
    """Raise DataError naming the bundle of `arrays` and each array not in `read`."""
    unread = sorted(set(arrays) - set(read))
    if unread:
        raise DataError(f"{arrays.path}: holds array(s) {', '.join(map(repr, unread))} "
                        "that its reader does not read")


def refuse_mismatch(lead, saved: dict, wanted: dict, what: str, fix: str) -> None:
    """Raise ConfigError "<lead>: the saved <what> has k=<saved value>,
    this run has k=<wanted value>; <fix>" for the first key k, in sorted
    order, on which two run keys differ (a key that one lacks counts as
    None there); return if they agree."""
    for key in sorted(set(saved) | set(wanted)):
        if saved.get(key) != wanted.get(key):
            raise ConfigError(f"{lead}: the saved {what} has {key}={saved.get(key)!r}, "
                              f"this run has {key}={wanted.get(key)!r}; {fix}")
