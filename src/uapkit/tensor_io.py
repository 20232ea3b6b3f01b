"""Reader/writer for the UAPT v1 binary tensor format, and the one place that
hashes artifacts: writers return the SHA-256 of the bytes they wrote, and
readers check the bytes they parse against a recorded SHA-256. The encoder's
identity (encoder.encoder_hash) is built from these digests of its weight
files, the ones read_tensor has verified or tensor_sha256 computes.

Layout: magic b"UAPT", u8 version (=1), u8 rank, rank little-endian u32 dims,
then prod(dims) little-endian float64 values in row-major order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import IntegrityError, InvalidArgumentError

MAGIC = b"UAPT"
VERSION = 1


def write_atomic(path, *chunks, sha256: str | None = None) -> str:
    """Write chunks (bytes or contiguous buffers) to a temp file beside path,
    then move it onto path, so a write that fails partway leaves the previous
    file intact; returns the SHA-256 of the bytes written. A caller that
    already holds that digest passes it as sha256, and the bytes are not
    hashed again."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    h = hashlib.sha256() if sha256 is None else None
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                if h is not None:
                    h.update(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return sha256 if h is None else h.hexdigest()


def write_json(path, obj) -> str:
    """Write obj as indented, key-sorted JSON; returns the SHA-256."""
    return write_atomic(path, json.dumps(obj, indent=2, sort_keys=True).encode())


def _uapt_chunks(tensor: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A UAPT file's header and its payload, the contiguous little-endian
    float64 values, which reach a file or SHA-256 through the buffer
    protocol without a copy of their own."""
    t = np.ascontiguousarray(tensor, dtype="<f8")
    if t.ndim > 255:
        raise InvalidArgumentError("rank exceeds u8")
    header = MAGIC + struct.pack("<BB", VERSION, t.ndim)
    return header + struct.pack(f"<{t.ndim}I", *t.shape), t


def tensor_sha256(tensor: np.ndarray) -> str:
    """The SHA-256 that write_tensor would return for tensor, with no file."""
    h = hashlib.sha256()
    for chunk in _uapt_chunks(tensor):
        h.update(chunk)
    return h.hexdigest()


def write_tensor(path, tensor: np.ndarray, sha256: str | None = None) -> str:
    """Write a UAPT file; returns the SHA-256. sha256, when given, is
    tensor_sha256(tensor), computed earlier, and the file is not hashed again."""
    return write_atomic(path, *_uapt_chunks(tensor), sha256=sha256)


def _open_named(path):
    """Open the file a manifest names for reading; no file at path (say a
    directory, or a NUL in the name) raises IntegrityError."""
    try:
        return open(path, "rb")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError) as exc:
        raise IntegrityError(f"missing file {path}") from exc


def read_verified(path, sha256: str) -> bytes:
    """Read a file once and check those bytes against sha256; no file at path
    or a different hash raises IntegrityError."""
    with _open_named(path) as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != sha256:
        raise IntegrityError(f"{path}: hash mismatch")
    return data


def read_tensor(path, sha256: str) -> np.ndarray:
    """Read a UAPT file whose bytes must hash to sha256 into an aligned,
    writable float64 array; the file is held in memory once. Like
    read_verified it reads the whole file, checks its hash, then parses it:
    a different hash raises IntegrityError, and so does bad framing of bytes
    that do hash to sha256."""
    with _open_named(path) as fh:
        head = fh.read(6)
        size = max(os.fstat(fh.fileno()).st_size, len(head))
        rank = head[5] if len(head) == 6 else 0
        # the values start 6 + 4 * rank bytes in: the file goes into a
        # float64 buffer (aligned, where a uint8 one need not be) at the
        # offset that puts them on an 8-byte boundary
        start = 6 + 4 * rank
        pad = -start % 8
        blob = np.empty((pad + size + 7) // 8).view(np.uint8)
        blob[pad:pad + len(head)] = memoryview(head)
        n = len(head) + fh.readinto(memoryview(blob)[pad + len(head):])
    data = blob[pad:pad + n]
    if hashlib.sha256(data).hexdigest() != sha256:
        raise IntegrityError(f"{path}: hash mismatch")
    if n < 6 or head[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a UAPT file")
    if head[4] != VERSION:
        raise IntegrityError(f"{path}: unsupported UAPT version {head[4]}")
    if n < start:
        raise IntegrityError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{rank}I", data, 6)
    expected = start + 8 * math.prod(dims)  # exact: np.prod wraps past 2**63
    if n != expected:
        raise IntegrityError(f"{path}: expected {expected} bytes, got {n}")
    try:
        return data[start:].view("<f8").reshape(dims).astype(np.float64, copy=False)
    except ValueError:  # an empty array whose other dims overflow
        raise IntegrityError(f"{path}: dims {dims} too large") from None
