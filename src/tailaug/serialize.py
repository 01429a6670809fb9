"""Artifact I/O: atomic writes, canonical JSON, the binary blob, and the
schema/lineage envelope every pipeline artifact carries.

Writes go to ``<path>.tmp``, are fsynced, then moved over ``path``, so a
crash leaves the old artifact or the new one, never a torn file.  Every
read failure is a :class:`DataError`.  JSON is canonical (sorted keys,
fixed separators), so reruns of one config give identical bytes.

Blob layout: 8-byte magic ``TAUGBLOB``, u64 little-endian header length,
UTF-8 header JSON, then the raw payload.  Every section is stored as
little-endian float32 in C order; the header records name, offset, shape
and a sha256 checksum of the whole payload so reloads are verifiably
bit-exact.  Non-array metadata (configs, epochs, metrics, lineage) lives in
the header's ``meta`` object.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

from .errors import DataError

_MAGIC = b"TAUGBLOB"
_VERSION = 1


@contextlib.contextmanager
def atomic_open(path, mode: str):
    """``<path>.tmp`` opened in ``mode`` (text is UTF-8); fsynced and moved over
    ``path`` when the block ends.  Any exception removes the temp file, so the old
    ``path`` stays; an OSError becomes a DataError."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:  # after the replace there is nothing left to remove
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``; on failure the old file stays."""
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def write_json(path, obj: dict) -> None:
    """Canonical JSON serialization: sorted keys, fixed separators."""
    write_text(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def write_jsonl(path, records) -> None:
    write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _decode_object(path, raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def read_json(path) -> dict:
    return _decode_object(path, _read_bytes(path))


def write_blob(path, sections: dict[str, np.ndarray], meta: dict) -> None:
    names = sorted(sections)
    payload = bytearray()
    index = []
    for name in names:
        arr = np.ascontiguousarray(sections[name], dtype="<f4")
        index.append({"name": name, "offset": len(payload), "shape": list(arr.shape)})
        payload.extend(arr.tobytes())
    header = {
        "version": _VERSION,
        "dtype": "<f4",
        "sections": index,
        "checksum": "sha256:" + hashlib.sha256(bytes(payload)).hexdigest(),
        "meta": meta,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_bytes(path, _MAGIC + np.uint64(len(header_bytes)).tobytes()
                + header_bytes + bytes(payload))


def read_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = _read_bytes(path)
    if raw[:len(_MAGIC)] != _MAGIC:
        raise DataError(f"{path}: not a tailaug blob (bad magic)")
    try:
        hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        header = _decode_object(path, raw[16:16 + hlen])
        payload = raw[16 + hlen:]
        if "sha256:" + hashlib.sha256(payload).hexdigest() != header["checksum"]:
            raise DataError(f"{path}: payload checksum mismatch (corrupt or truncated file)")
        sections = {}
        for sec in header["sections"]:
            shape = tuple(int(d) for d in sec["shape"])
            arr = np.frombuffer(payload, dtype="<f4", count=int(np.prod(shape)),
                                offset=int(sec["offset"]))
            sections[sec["name"]] = arr.reshape(shape).copy()
        if not isinstance(header["meta"], dict):
            raise TypeError("meta is not an object")
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt blob header: {exc!r}") from exc
    return sections, header["meta"]


def save(path, schema: str, fields: dict, lineage: dict,
         sections: dict[str, np.ndarray] | None = None) -> None:
    """Write an artifact: ``fields`` plus its ``schema`` and ``lineage`` envelope.

    Without ``sections`` the envelope is a canonical JSON file; with them
    it becomes the blob header's ``meta`` and the sections its payload.
    """
    doc = {**fields, "schema": schema, "lineage": lineage}
    if sections is None:
        write_json(path, doc)
    else:
        write_blob(path, sections, doc)


def load(path, schema: str, decode, blob: bool = False):
    """Read an artifact written by :func:`save`; returns ``(decode(...), lineage)``.

    ``decode`` receives the envelope dict, and for a blob also the
    sections.  A wrong schema, a non-object lineage, or a missing or
    ill-typed field is a DataError.  An absent lineage comes back as
    ``{}``, left to the caller's lineage check.
    """
    sections, doc = read_blob(path) if blob else (None, read_json(path))
    if doc.get("schema") != schema:
        raise DataError(f"{path}: unexpected schema {doc.get('schema')!r}, expected {schema!r}")
    lineage = doc.get("lineage", {})
    if not isinstance(lineage, dict):
        raise DataError(f"{path}: lineage is not an object")
    try:
        return (decode(doc, sections) if blob else decode(doc)), lineage
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: missing or malformed field: {exc!r}") from exc
