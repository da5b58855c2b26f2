"""Binary container for named float64 tensors, used by every checkpoint,
plus the atomic file write and the two JSON forms every artifact uses: the
indented file body and the compact canonical bytes that hashes are taken over.

Layout (all integers little-endian):
    magic   4 bytes  b"LCT1"
    version u32      currently 1
    n_meta  u32      then per entry: u16 key length, key utf-8, i64 value
    n_tens  u32      then per tensor:
        u16 name length, name utf-8,
        u8 ndim, ndim x u32 dims,
        float64 little-endian row-major payload
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

MAGIC = b"LCT1"
VERSION = 1


@contextmanager
def atomic_write(path, mode: str = "wb", newline: str | None = None):
    """Open a temporary file next to ``path`` for writing (``newline`` as in
    :func:`open`); on a clean exit it replaces ``path`` in one rename, on an
    exception it is removed and ``path`` is left as it was."""
    # plain string paths: pathlib costs more than the write itself on a
    # checkpoint of tens of kB
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    """``payload`` as key-sorted, indented JSON plus a newline, written
    atomically; the parent directory is created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def canonical_json(payload) -> bytes:
    """Key-sorted JSON with no whitespace: equal payloads give equal bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def content_hash(payload) -> str:
    """First 16 hex digits of the sha256 of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()[:16]


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, int] | None = None) -> Path:
    path = Path(path)
    meta = meta or {}
    parts = [MAGIC, _U32.pack(VERSION), _U32.pack(len(meta))]
    for key in sorted(meta):
        kb = key.encode()
        parts += (_U16.pack(len(kb)), kb, _I64.pack(int(meta[key])))
    parts.append(_U32.pack(len(tensors)))
    for name in sorted(tensors):
        # joined as a buffer: the payload is copied once, into the file body
        arr = np.asarray(tensors[name], dtype="<f8", order="C")
        nb = name.encode()
        parts += (_U16.pack(len(nb)), nb, bytes((arr.ndim,)),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(b"".join(parts))
    return path


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Read a container; a short, cut or malformed file raises ValueError.
    Each tensor is a C-contiguous, writable float64 array owning its memory."""
    with open(path, "rb") as fh:
        blob = fh.read()
    size = len(blob)
    if blob[:4] != MAGIC:
        raise ValueError(f"load_tensors: bad magic in {path}")

    def truncated(needs: int) -> ValueError:
        return ValueError(f"load_tensors: {path} is truncated "
                          f"({size} bytes, needs at least {needs})")

    # every field is checked against the blob's end before it is read
    if size < 8:
        raise truncated(8)
    (version,) = _U32.unpack_from(blob, 4)
    if version != VERSION:
        raise ValueError(f"load_tensors: unsupported version {version}")
    if size < 12:
        raise truncated(12)
    (n_meta,) = _U32.unpack_from(blob, 8)
    off = 12
    meta: dict[str, int] = {}
    for _ in range(n_meta):
        if off + 2 > size:
            raise truncated(off + 2)
        (klen,) = _U16.unpack_from(blob, off)
        off += 2
        if off + klen > size:
            raise truncated(off + klen)
        key = blob[off:off + klen].decode()
        off += klen
        if off + 8 > size:
            raise truncated(off + 8)
        (meta[key],) = _I64.unpack_from(blob, off)
        off += 8
    if off + 4 > size:
        raise truncated(off + 4)
    (n_tens,) = _U32.unpack_from(blob, off)
    off += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tens):
        if off + 2 > size:
            raise truncated(off + 2)
        (nlen,) = _U16.unpack_from(blob, off)
        off += 2
        if off + nlen > size:
            raise truncated(off + nlen)
        name = blob[off:off + nlen].decode()
        off += nlen
        if off + 1 > size:
            raise truncated(off + 1)
        ndim = blob[off]
        off += 1
        if off + 4 * ndim > size:
            raise truncated(off + 4 * ndim)
        dims = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        count = math.prod(dims)
        if off + 8 * count > size:
            raise truncated(off + 8 * count)
        tensors[name] = np.frombuffer(blob, "<f8", count, off).reshape(dims).copy()
        off += 8 * count
    if off != size:
        raise ValueError("load_tensors: trailing bytes in container")
    return tensors, meta
