import hashlib
import os
import struct

import numpy as np
import pytest

from rungelab import store
from rungelab.errors import (BadChecksumError, BadKindError, BadLengthError, BadMagicError,
                             BadVersionError, BadProvenanceError)


def test_roundtrip(tmp_path):
    path = tmp_path / "a.rgfo"
    payload = os.urandom(4096)
    store.write_envelope(path, "field", 1234, payload)
    assert store.read_envelope(path, "field", 1234) == payload


def test_checksum_detects_flip(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "field", 1, b"x" * 100)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        store.read_envelope(path, "field", 1)


def test_version_rejected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "svd", 1, b"abc")
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(BadVersionError):
        store.read_envelope(path, "svd", 1)


def test_version_one_envelope_rejected(tmp_path):
    # a well-formed envelope of the previous format: FNV-1a payload tail
    payload = b"operator payload" * 8
    header = store._HEADER.pack(store.MAGIC, 1, store.KINDS["operator"], 5, len(payload))
    path = tmp_path / "a.rgfo"
    path.write_bytes(header + payload + store._TAIL.pack(store.fnv1a64(payload)))
    with pytest.raises(BadVersionError):
        store.read_envelope(path, "operator", 5)


def test_payload_check_is_blake2b_64(tmp_path):
    path = tmp_path / "a.rgfo"
    payload = os.urandom(1000)
    store.write_envelope(path, "field", 3, payload)
    assert path.read_bytes()[-8:] == hashlib.blake2b(payload, digest_size=8).digest()


@pytest.mark.parametrize("bit", [0, 7 * 8 + 3, 99 * 8 + 7, 100 * 8, 107 * 8 + 7])
def test_one_bit_flip_detected(tmp_path, bit):
    # payload bytes 0..99, then the 8 check bytes
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "field", 1, os.urandom(100))
    blob = bytearray(path.read_bytes())
    blob[store._HEADER.size + bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        store.read_envelope(path, "field", 1)


def test_magic_rejected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "svd", 1, b"abc")
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        store.read_envelope(path, "svd", 1)


def test_kind_mismatch(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "svd", 1, b"abc")
    with pytest.raises(BadKindError):
        store.read_envelope(path, "operator", 1)


def test_provenance_mismatch(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "svd", 1, b"abc")
    with pytest.raises(BadProvenanceError):
        store.read_envelope(path, "svd", 2)


def test_truncation_detected(tmp_path):
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "svd", 1, b"abcdefgh" * 100)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(BadLengthError):
        store.read_envelope(path, "svd", 1)
    path.write_bytes(blob[:10])
    with pytest.raises(BadLengthError):
        store.read_envelope(path, "svd", 1)


def test_no_stray_tempfiles(tmp_path):
    path = tmp_path / "a.rgfo"
    for _ in range(3):
        store.write_envelope(path, "field", 7, os.urandom(256))
    assert sorted(os.listdir(tmp_path)) == ["a.rgfo"]


def test_real_matrix_payload():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((7, 5))
    blob = store.pack_matrix(mat)
    back = store.unpack_matrix(blob)
    assert np.array_equal(back, mat)
    with pytest.raises(BadLengthError):
        store.unpack_matrix(blob[:-8])
    with pytest.raises(BadLengthError):
        store.unpack_matrix(blob[:12])
    # the layout on disk: rows, cols, then row-major float64 entries; a
    # signed zero keeps its sign
    small = np.array([[1.0, -2.5, -0.0], [0.0, 3.0, 1e-300]])
    blob = store.pack_matrix(small)
    assert blob == (struct.pack("<QQ", 2, 3)
                    + struct.pack("<6d", 1.0, -2.5, -0.0, 0.0, 3.0, 1e-300))
    back = store.unpack_matrix(blob)
    assert back.tobytes() == small.tobytes()


def test_operator_payload(tmp_path):
    # R, then L, then the margin f64; the margin and the two shapes read
    # back unverified from the file without the matrices
    mat = np.array([[1.0, -2.5], [0.0, 3.0], [4.0, 5.0]])
    chol = np.array([[2.0, 0.0], [-0.5, 1.5]])
    blob = store.pack_operator(mat, chol, 1.739e-3)
    assert blob == store.pack_matrix(mat) + store.pack_matrix(chol) + struct.pack("<d", 1.739e-3)
    back, back_chol, margin = store.unpack_operator(blob)
    assert back.tobytes() == mat.tobytes() and back_chol.tobytes() == chol.tobytes()
    assert margin == 1.739e-3
    path = tmp_path / "a.rgfo"
    store.write_envelope(path, "operator", 9, store.pack_operator(mat, chol, 0.5))
    assert store.read_margin(path) == 0.5
    assert store.read_operator_shapes(path) == ((3, 2), (2, 2))
    for cut in (blob[:-1], blob[:4], blob[:-9], blob[:len(store.pack_matrix(mat)) + 8]):
        with pytest.raises(BadLengthError):
            store.unpack_operator(cut)
    # a version-5 payload, R then the margin, holds no L
    with pytest.raises(BadLengthError):
        store.unpack_operator(store.pack_matrix(mat) + struct.pack("<d", 0.5))
    for payload in (b"short", store.pack_matrix(mat) + struct.pack("<d", 0.5),
                    blob + b"\0"):
        store.write_envelope(path, "operator", 9, payload)
        with pytest.raises(struct.error):
            store.read_operator_shapes(path)
    store.write_envelope(path, "operator", 9, b"short")
    with pytest.raises(struct.error):
        store.read_margin(path)


def test_provenance_hash_stable():
    a = store.provenance_hash({"grid": [1, 2, 3], "omega": 2.0})
    b = store.provenance_hash({"omega": 2.0, "grid": [1, 2, 3]})
    assert a == b
    c = store.provenance_hash({"omega": 2.1, "grid": [1, 2, 3]})
    assert a != c


def test_unknown_kind_rejected(tmp_path):
    from rungelab.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        store.write_envelope(tmp_path / "x.rgfo", "mystery", 0, b"")
    store.write_envelope(tmp_path / "x.rgfo", "field", 0, b"")
    with pytest.raises(ConfigurationError):
        store.read_envelope(tmp_path / "x.rgfo", "mystery", 0)
