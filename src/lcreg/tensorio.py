"""Binary container for named tensors, used by every checkpoint and every
dataset split, plus the atomic file write and the two JSON forms every
artifact uses: the indented file body and the compact canonical bytes that
hashes are taken over.

Layout (all integers little-endian):
    magic   4 bytes  b"LCT1"
    version u32      currently 1
    n_meta  u32      then per entry: u16 key length, key utf-8, i64 value
    n_tens  u32      then per tensor:
        u16 name length, name utf-8,
        u8 dtype code << 6 | ndim (codes 0 float64, 1 float32, 2 uint32; ndim <= 63),
        ndim x u32 dims,
        little-endian row-major payload of that dtype
"""

from __future__ import annotations

import hashlib
import io
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
DTYPES = (np.dtype("<f8"), np.dtype("<f4"), np.dtype("<u4"))  # index = dtype code
_CODES = {np.float32: 1, np.uint32: 2}  # any other scalar type is stored as code 0
MAX_NDIM = 63
READ_BUFFER = 1 << 18


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, int] | None = None) -> Path:
    """Write a container atomically. float32 and uint32 arrays keep their
    dtype; any other array is stored as float64."""
    path = Path(path)
    meta = meta or {}
    parts = [MAGIC, _U32.pack(VERSION), _U32.pack(len(meta))]
    for key in sorted(meta):
        kb = key.encode()
        parts += (_U16.pack(len(kb)), kb, _I64.pack(int(meta[key])))
    parts.append(_U32.pack(len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        code = _CODES.get(arr.dtype.type, 0)
        # joined as a buffer: the payload is copied once, into the file body
        arr = np.asarray(arr, dtype=DTYPES[code], order="C")
        if arr.ndim > MAX_NDIM:
            raise ValueError(f"save_tensors: {name!r} has {arr.ndim} dims, "
                             f"more than {MAX_NDIM}")
        nb = name.encode()
        parts += (_U16.pack(len(nb)), nb, bytes((code << 6 | arr.ndim,)),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(b"".join(parts))
    return path


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Read a container; a short, cut or malformed file, or one that repeats
    a tensor name or meta key, raises ValueError.
    Each tensor is a C-contiguous, writable array of its stored dtype that
    owns its memory, read straight from the file into place."""
    with open(path, "rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        # one read buffers a whole checkpoint; a payload past the buffer
        # goes straight from the file into its array
        fh = io.BufferedReader(raw, min(size, READ_BUFFER) or 1)
        if fh.read(4) != MAGIC:
            raise ValueError(f"load_tensors: bad magic in {path}")
        off = 4

        def need(n: int) -> int:
            """``n``, once the next ``n`` bytes are known to lie inside the file."""
            nonlocal off
            if off + n > size:
                raise ValueError(f"load_tensors: {path} is truncated "
                                 f"({size} bytes, needs at least {off + n})")
            off += n
            return n

        (version,) = _U32.unpack(fh.read(need(4)))
        if version != VERSION:
            raise ValueError(f"load_tensors: unsupported version {version}")
        meta: dict[str, int] = {}
        for _ in range(_U32.unpack(fh.read(need(4)))[0]):
            key = fh.read(need(_U16.unpack(fh.read(need(2)))[0])).decode()
            if key in meta:
                raise ValueError(f"load_tensors: meta key {key!r} repeated in {path}")
            (meta[key],) = _I64.unpack(fh.read(need(8)))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(_U32.unpack(fh.read(need(4)))[0]):
            name = fh.read(need(_U16.unpack(fh.read(need(2)))[0])).decode()
            if name in tensors:
                raise ValueError(f"load_tensors: tensor {name!r} repeated in {path}")
            code, ndim = divmod(fh.read(need(1))[0], MAX_NDIM + 1)
            if code == len(DTYPES):
                raise ValueError(f"load_tensors: tensor {name!r} has unknown dtype code {code}")
            dims = struct.unpack(f"<{ndim}I", fh.read(need(4 * ndim)))
            # sized against the file before anything is allocated
            need(DTYPES[code].itemsize * math.prod(dims))
            tensors[name] = arr = np.empty(dims, DTYPES[code])
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"load_tensors: {path} changed while it was read")
        if off != size:
            raise ValueError("load_tensors: trailing bytes in container")
    return tensors, meta
