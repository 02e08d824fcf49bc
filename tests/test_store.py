import hashlib
import os
import struct

import numpy as np
import pytest

from rungelab import store
from rungelab.errors import (BadChecksumError, BadKindError, BadLengthError, BadMagicError,
                             BadVersionError, BadProvenanceError)


def _factors(rng, m, n, nb=2):
    """Random arrays of the shapes of an (m, n) operator's stored factors."""
    F = np.asfortranarray
    return (F(rng.standard_normal((m, n))), F(rng.standard_normal((nb, n))),
            F(rng.standard_normal((n, n))), rng.standard_normal((2, n)),
            rng.standard_normal((2, n)))


def test_roundtrip(tmp_path):
    # the parts are hashed and written in turn, never joined: the payload
    # read back is their concatenation
    path = tmp_path / "a.rgfo"
    rng = np.random.default_rng(0)
    parts = store.pack_operator(rng.standard_normal((7, 5)), np.tril(rng.standard_normal((5, 5))),
                                _factors(rng, 7, 5), rng.random())
    store.write_envelope(path, 1234, *parts)
    assert store.read_envelope(path, 1234) == b"".join(parts)


def test_checksum_detects_flip(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, b"x" * 100)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        store.read_envelope(path, 1)


def test_version_rejected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, b"abc")
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(BadVersionError):
        store.read_envelope(path, 1)


def test_version_one_envelope_rejected(tmp_path):
    # a well-formed envelope of the previous format: FNV-1a payload tail
    payload = b"operator payload" * 8
    header = store._HEADER.pack(store.MAGIC, 1, store.KIND, 5, len(payload))
    path = tmp_path / "a.rgfo"
    path.write_bytes(header + payload + store._TAIL.pack(store.fnv1a64(payload)))
    with pytest.raises(BadVersionError):
        store.read_envelope(path, 5)


def test_payload_check_is_blake2b_64(tmp_path):
    path = tmp_path / "a.rgfo"
    payload = os.urandom(1000)
    store.write_envelope(path, 3, payload)
    assert path.read_bytes()[-8:] == hashlib.blake2b(payload, digest_size=8).digest()


@pytest.mark.parametrize("bit", [0, 7 * 8 + 3, 99 * 8 + 7, 100 * 8, 107 * 8 + 7])
def test_one_bit_flip_detected(tmp_path, bit):
    # payload bytes 0..99, then the 8 check bytes
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, os.urandom(100))
    blob = bytearray(path.read_bytes())
    blob[store._HEADER.size + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        store.read_envelope(path, 1)


def test_magic_rejected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, b"abc")
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        store.read_envelope(path, 1)


def test_kind_mismatch(tmp_path):
    # the header keeps its kind field: an envelope whose header names any
    # kind but the operator's is refused
    path = tmp_path / "a.rgfo"
    payload = b"abc"
    for kind in (0, 2, 3):
        path.write_bytes(store._HEADER.pack(store.MAGIC, store.VERSION, kind, 1, len(payload))
                         + payload + store._TAIL.pack(store._payload_check(payload)))
        assert store.read_header(path)[1] == kind
        with pytest.raises(BadKindError):
            store.read_envelope(path, 1)
    store.write_envelope(path, 1, payload)
    assert store.read_header(path) == (store.VERSION, 1, 1, 3)


def test_provenance_mismatch(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, b"abc")
    with pytest.raises(BadProvenanceError):
        store.read_envelope(path, 2)


def test_truncation_detected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 1, b"abcdefgh" * 100)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(BadLengthError):
        store.read_envelope(path, 1)
    path.write_bytes(blob[:10])
    with pytest.raises(BadLengthError):
        store.read_envelope(path, 1)
    # the unverified header read refuses a short file with the same type
    with pytest.raises(BadLengthError):
        store.read_header(path)


def test_no_stray_tempfiles(tmp_path):
    path = tmp_path / "a.rgfo"
    for _ in range(3):
        store.write_envelope(path, 7, os.urandom(256))
    assert sorted(os.listdir(tmp_path)) == ["a.rgfo"]


def test_real_matrix_payload():
    # R, then L, each as rows, cols and row-major float64 entries, then the
    # factors, V_W, T_W and A_B column-major, then the margin f64; a signed
    # zero keeps its sign
    mat = np.array([[1.0, -2.5, -0.0], [0.0, 3.0, 1e-300]])
    chol = np.array([[2.0, 0.0, 0.0], [-0.5, 1.5, 0.0], [0.25, -0.0, 1.0]])
    factors = (np.asfortranarray(mat), mat[:1], chol, mat[:, :2], -mat[:, 1:])
    blob = b"".join(store.pack_operator(mat, chol, factors, 1.739e-3))
    assert blob == (struct.pack("<QQ", 2, 3)
                    + struct.pack("<6d", 1.0, -2.5, -0.0, 0.0, 3.0, 1e-300)
                    + struct.pack("<QQ", 3, 3)
                    + struct.pack("<9d", 2.0, 0.0, 0.0, -0.5, 1.5, 0.0, 0.25, -0.0, 1.0)
                    + struct.pack("<QQ", 2, 3)
                    + struct.pack("<6d", 1.0, 0.0, -2.5, 3.0, -0.0, 1e-300)
                    + struct.pack("<QQ", 1, 3) + struct.pack("<3d", 1.0, -2.5, -0.0)
                    + struct.pack("<QQ", 3, 3)
                    + struct.pack("<9d", 2.0, -0.5, 0.25, 0.0, 1.5, -0.0, 0.0, 0.0, 1.0)
                    + struct.pack("<QQ", 2, 2) + struct.pack("<4d", 1.0, -2.5, 0.0, 3.0)
                    + struct.pack("<QQ", 2, 2) + struct.pack("<4d", 2.5, 0.0, -3.0, -1e-300)
                    + struct.pack("<d", 1.739e-3))
    back, back_chol, back_factors, margin = store.unpack_operator(blob)
    assert back.tobytes() == mat.tobytes() and back_chol.tobytes() == chol.tobytes()
    assert [f.tobytes() for f in back_factors] == [np.array(f).tobytes() for f in factors]
    assert all(f.flags.f_contiguous for f in back_factors[:3])
    assert margin == 1.739e-3
    assert not back.flags.writeable and not back_chol.flags.writeable
    # a writable payload, as read_envelope returns, gives LAPACK writable
    # factors and still read-only R and L
    back, back_chol, back_factors, _ = store.unpack_operator(bytearray(blob))
    assert all(f.flags.writeable for f in back_factors)
    assert not back.flags.writeable and not back_chol.flags.writeable


def test_operator_payload(tmp_path):
    rng = np.random.default_rng(0)
    mat, chol = rng.standard_normal((7, 5)), np.tril(rng.standard_normal((5, 5)))
    parts = store.pack_operator(mat, chol, _factors(rng, 7, 5), 0.5)
    blob = b"".join(parts)
    r_bytes, l_bytes = 16 + 8 * mat.size, 16 + 8 * chol.size
    for cut in (blob[:-1], blob[:4], blob[:-9], blob[:r_bytes + 8], blob + b"\0", b"short"):
        with pytest.raises(BadLengthError):
            store.unpack_operator(cut)
    # a version-5 payload, R then the margin, holds no L, and a version-6
    # payload, R, L and the margin, no factors
    with pytest.raises(BadLengthError):
        store.unpack_operator(blob[:r_bytes] + struct.pack("<d", 0.5))
    with pytest.raises(BadLengthError, match="the dimensions of V_W"):
        store.unpack_operator(blob[:r_bytes + l_bytes] + struct.pack("<d", 0.5))
    # an envelope round trip hands back the same matrices and margin
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 9, *parts)
    back, back_chol, _, margin = store.unpack_operator(store.read_envelope(path, 9))
    assert np.array_equal(back, mat) and np.array_equal(back_chol, chol) and margin == 0.5


def test_payload_cut_inside_a_factor_names_it():
    rng = np.random.default_rng(1)
    m, n = 7, 5
    parts = store.pack_operator(rng.standard_normal((m, n)), np.eye(n), _factors(rng, m, n), 0.5)
    # parts: the dimensions and the entries of each matrix, then the margin
    starts = np.cumsum([0] + [memoryview(p).nbytes for p in parts])
    blob = b"".join(parts)
    for i, name in enumerate(store.FACTORS, start=2):
        entries = starts[2 * i + 1]
        with pytest.raises(BadLengthError, match=f"ends before {name}'s "):
            store.unpack_operator(blob[:entries + 12])
        with pytest.raises(BadLengthError, match=f"the dimensions of {name}$"):
            store.unpack_operator(blob[:entries - 3])


def test_aligned_arrays_from_an_envelope(tmp_path):
    # the header is 28 bytes: the payload is read into a buffer of its own,
    # so every array read back is 8-byte aligned
    rng = np.random.default_rng(2)
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, 3, *store.pack_operator(
        rng.standard_normal((7, 5)), np.eye(5), _factors(rng, 7, 5), 0.5))
    R, L, factors, _ = store.unpack_operator(store.read_envelope(path, 3))
    for a in (R, L, *factors):
        assert a.ctypes.data % 8 == 0 and a.flags.aligned


def test_provenance_hash_stable():
    a = store.provenance_hash({"grid": [1, 2, 3], "omega": 2.0})
    b = store.provenance_hash({"omega": 2.0, "grid": [1, 2, 3]})
    assert a == b
    c = store.provenance_hash({"omega": 2.1, "grid": [1, 2, 3]})
    assert a != c
