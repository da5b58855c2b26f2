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


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, int] | None = None) -> Path:
    path = Path(path)
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta = meta or {}
    parts.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        kb = key.encode()
        parts.append(struct.pack("<H", len(kb)) + kb + struct.pack("<q", int(meta[key])))
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        nb = name.encode()
        parts.append(struct.pack("<H", len(nb)) + nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.astype("<f8").tobytes())
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(b"".join(parts))
    return path


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Read a container; a short, cut or malformed file raises ValueError."""
    blob = memoryview(Path(path).read_bytes())
    if blob[:4] != MAGIC:
        raise ValueError(f"load_tensors: bad magic in {path}")
    off = 4

    def take(size: int) -> memoryview:
        nonlocal off
        if off + size > len(blob):
            raise ValueError(f"load_tensors: {path} is truncated "
                             f"({len(blob)} bytes, needs at least {off + size})")
        off += size
        return blob[off - size:off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != VERSION:
        raise ValueError(f"load_tensors: unsupported version {version}")
    (n_meta,) = unpack("<I")
    meta: dict[str, int] = {}
    for _ in range(n_meta):
        (klen,) = unpack("<H")
        key = bytes(take(klen)).decode()
        (meta[key],) = unpack("<q")
    (n_tens,) = unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tens):
        (nlen,) = unpack("<H")
        name = bytes(take(nlen)).decode()
        (ndim,) = unpack("<B")
        dims = unpack(f"<{ndim}I")
        payload = take(8 * math.prod(dims))
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    if off != len(blob):
        raise ValueError("load_tensors: trailing bytes in container")
    return tensors, meta
