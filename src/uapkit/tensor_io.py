"""Reader/writer for the UAPT v1 binary tensor format.

Layout: magic b"UAPT", u8 version (=1), u8 rank, rank little-endian u32 dims,
then prod(dims) little-endian float64 values in row-major order.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import IntegrityError, InvalidArgumentError

MAGIC = b"UAPT"
VERSION = 1


def write_atomic(path, *chunks: bytes) -> None:
    """Write chunks to a temp file beside path, then move it onto path, so a
    write that fails partway leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_tensor(path, tensor: np.ndarray) -> None:
    t = np.ascontiguousarray(tensor, dtype=np.float64)
    if t.ndim > 255:
        raise InvalidArgumentError("rank exceeds u8")
    header = MAGIC + struct.pack("<BB", VERSION, t.ndim)
    header += struct.pack(f"<{t.ndim}I", *t.shape)
    write_atomic(path, header, t.astype("<f8").tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a UAPT file")
    version, rank = struct.unpack_from("<BB", data, 4)
    if version != VERSION:
        raise IntegrityError(f"{path}: unsupported UAPT version {version}")
    offset = 6
    if len(data) < offset + 4 * rank:
        raise IntegrityError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}I", data, offset)
    offset += 4 * rank
    count = int(np.prod(dims)) if rank else 1
    expected = offset + 8 * count
    if len(data) != expected:
        raise IntegrityError(f"{path}: expected {expected} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
    return values.reshape(dims).astype(np.float64, copy=True)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
