import hashlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from uapkit.errors import IntegrityError
from uapkit.rng import Lcg
from uapkit import tensor_io
from uapkit.tensor_io import (MAGIC, read_tensor, read_verified, write_atomic,
                              write_json, write_tensor)

from conftest import peak_bytes


@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=4, max_side=5),
              elements=st.floats(-1e12, 1e12, allow_nan=False)))
@settings(max_examples=100, deadline=None)
def test_roundtrip_bitwise(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("io") / "t.uapt"
    write_tensor(path, data)
    out = read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())
    assert out.shape == data.shape
    assert np.array_equal(out, data)


def test_header_layout(tmp_path):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    assert blob[:4] == b"UAPT"
    assert blob[4] == 1          # version
    assert blob[5] == 2          # rank
    assert blob[6:14] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(blob) == 14 + 6 * 8


def earlier_serialization(tensor) -> bytes:
    """The UAPT bytes as write_tensor once built them, with a second copy."""
    t = np.ascontiguousarray(tensor, dtype=np.float64)
    header = MAGIC + struct.pack("<BB", 1, t.ndim) + struct.pack(f"<{t.ndim}I", *t.shape)
    return header + t.astype("<f8").tobytes(order="C")


@pytest.mark.parametrize("tensor", [
    np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
    np.arange(24.0).reshape(4, 6)[::2, 1::2],
    np.linspace(-3, 3, 10).astype(">f8").reshape(2, 5),
], ids=["float32", "non_contiguous", "big_endian"])
def test_write_tensor_bytes_and_digest(tmp_path, tensor):
    path = tmp_path / "t.uapt"
    sha = write_tensor(path, tensor)
    assert path.read_bytes() == earlier_serialization(tensor)
    assert sha == tensor_io.tensor_sha256(tensor) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 1, 3), (1, 2, 2, 2), (2, 1, 1, 2, 1)])
def test_read_returns_aligned_writable_float64(tmp_path, shape):
    # the values start 6 + 4 * rank bytes into the file, never at a multiple
    # of 8, so an array viewed on the file's bytes would be misaligned (and
    # read-only), which sends numpy's float64 kernels down slow paths; the
    # reader's pad depends on the rank's parity, and a scalar has no dims
    path = tmp_path / "t.uapt"
    sha = write_tensor(path, np.arange(float(math.prod(shape))).reshape(shape))
    out = read_tensor(path, sha)
    assert out.dtype == np.float64 and out.shape == shape
    assert out.flags.aligned and out.flags.writeable and out.flags.c_contiguous


def test_read_holds_the_file_once(tmp_path):
    # the payload is read straight into the array it returns, with no copy
    # of the file's bytes beside it
    path = tmp_path / "t.uapt"
    sha = write_tensor(path, Lcg(5).fill_uniform(1 << 17, -1.0, 1.0).reshape(256, 512))
    out, peak = peak_bytes(read_tensor, path, sha)
    assert out.nbytes == 1 << 20
    assert peak < out.nbytes + (64 << 10)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.zeros(3))
    blob = bytearray(path.read_bytes())
    blob[0] = ord(b"X")
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())


def test_truncation_rejected(tmp_path):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.arange(10.0))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(IntegrityError):
        read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.arange(4.0))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IntegrityError):
        read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())


# -- seeded generator --------------------------------------------------------

def test_lcg_known_stream():
    # x_{n+1} = 6364136223846793005 x_n + 1442695040888963407 mod 2^64
    m, c = 6364136223846793005, 1442695040888963407
    state = 12345
    rng = Lcg(12345)
    for _ in range(5):
        state = (m * state + c) % 2**64
        assert rng.next_u64() == state


def test_lcg_uniform_range_and_determinism():
    a = Lcg(7).fill_uniform(1000, -2.0, 3.0)
    b = Lcg(7).fill_uniform(1000, -2.0, 3.0)
    assert a.tobytes() == b.tobytes()
    assert all(-2.0 <= v < 3.0 for v in a)


def test_lcg_gaussian_moments():
    vals = np.array(Lcg(11).fill_gaussian(20000))
    assert abs(vals.mean()) < 0.05
    assert abs(vals.std() - 1.0) < 0.05


def test_write_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.arange(4.0))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_atomic(path, b"UAPT", "the second chunk is not bytes")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.uapt"]


def test_write_tensor_failing_to_replace_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "t.uapt"
    write_tensor(path, np.arange(4.0))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(tensor_io.os, "replace", fail)
    with pytest.raises(OSError):
        write_tensor(path, np.ones(7))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert np.array_equal(read_tensor(path, digest), np.arange(4.0))
    assert [p.name for p in tmp_path.iterdir()] == ["t.uapt"]


def test_writers_return_the_hash_of_the_bytes_written(tmp_path):
    assert write_tensor(tmp_path / "t.uapt", np.arange(6.0).reshape(2, 3)) == hashlib.sha256(
        (tmp_path / "t.uapt").read_bytes()).hexdigest()
    assert write_json(tmp_path / "t.json", {"b": [1, 2], "a": 0.5}) == hashlib.sha256(
        (tmp_path / "t.json").read_bytes()).hexdigest()
    assert (tmp_path / "t.json").read_text() == '{\n  "a": 0.5,\n  "b": [\n    1,\n    2\n  ]\n}'
    assert write_atomic(tmp_path / "t.bin", b"ab", b"c") == hashlib.sha256(b"abc").hexdigest()


def test_read_verified_rejects_missing_file_and_wrong_hash(tmp_path):
    path = tmp_path / "t.bin"
    with pytest.raises(IntegrityError, match="missing file"):
        read_verified(path, hashlib.sha256(b"abc").hexdigest())
    path.write_bytes(b"abc")
    assert read_verified(path, hashlib.sha256(b"abc").hexdigest()) == b"abc"
    with pytest.raises(IntegrityError, match="hash mismatch"):
        read_verified(path, hashlib.sha256(b"abd").hexdigest())


@pytest.mark.parametrize("name", ["", "a\x00b", "t.bin/x"])
def test_read_verified_rejects_a_name_that_is_no_file(tmp_path, name):
    # a manifest can name the directory it sits in, a NUL byte or a path
    # below a file; each is a missing file, not an I/O failure
    (tmp_path / "t.bin").write_bytes(b"abc")
    with pytest.raises(IntegrityError, match="missing file"):
        read_verified(tmp_path / name, hashlib.sha256(b"abc").hexdigest())


def read_blob(tmp_path_factory, blob: bytes):
    """read_tensor on a file holding blob, with blob's own hash."""
    path = tmp_path_factory.mktemp("io") / "t.uapt"
    path.write_bytes(blob)
    return read_tensor(path, hashlib.sha256(blob).hexdigest())


def header(dims) -> bytes:
    return MAGIC + struct.pack("<BB", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


@pytest.mark.parametrize("blob, message", [
    (b"XAPT" + bytes(14), "not a UAPT file"),
    (MAGIC + b"\x02\x01" + bytes(12), "unsupported UAPT version 2"),
    (MAGIC + b"\x01\x02" + bytes(4), "truncated header"),
    (header([3]) + bytes(16), "expected 34 bytes, got 26"),
    (header([2]) + bytes(24), "expected 26 bytes, got 34"),
    (header([0, 2**32 - 1, 2**32 - 1]), "dims (0, 4294967295, 4294967295) too large"),
], ids=["bad_magic", "version", "truncated_header", "short_payload", "long_payload",
        "overflowing_dims"])
def test_a_hash_mismatch_takes_precedence_over_framing(tmp_path, blob, message):
    path = tmp_path / "t.uapt"
    path.write_bytes(blob)
    with pytest.raises(IntegrityError, match=re.escape(f"{path}: {message}")):
        read_tensor(path, hashlib.sha256(blob).hexdigest())
    with pytest.raises(IntegrityError, match="hash mismatch"):
        read_tensor(path, hashlib.sha256(blob + b"\x00").hexdigest())


@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(lambda tail: MAGIC + b"\x01" + tail)))
@settings(max_examples=200, deadline=None)
def test_read_tensor_on_arbitrary_bytes(tmp_path_factory, blob):
    try:
        out = read_blob(tmp_path_factory, blob)
    except IntegrityError:
        return
    dims = struct.unpack_from(f"<{blob[5]}I", blob, 6)
    assert out.shape == dims and out.size == math.prod(dims)


@given(dims=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)), max_size=6),
       n_bytes=st.one_of(st.none(), st.integers(0, 80)))
@example(dims=[65536] * 4, n_bytes=0)  # np.prod wraps this count to 0
@example(dims=[0, 2**32 - 1, 2**32 - 1], n_bytes=0)
@settings(max_examples=200, deadline=None)
def test_read_tensor_on_uapt_headers(tmp_path_factory, dims, n_bytes):
    # n_bytes None: exactly the payload the dims ask for, when that is small
    count = math.prod(dims)
    if n_bytes is None:
        n_bytes = 8 * count if count <= 10 else 0
    try:
        out = read_blob(tmp_path_factory, header(dims) + bytes(n_bytes))
    except IntegrityError:
        return
    assert out.shape == tuple(dims) and out.size == math.prod(dims)
