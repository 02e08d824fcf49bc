"""Binary envelope persistence shared by operator caches and field snapshots.

On-disk layout, all integers little-endian:

    magic   4 bytes  b"RGFO"
    version u32      currently 3
    kind    u32      1 = operator, 2 = svd, 3 = field
    prov    u64      provenance hash (FNV-1a of a canonical description)
    length  u64      payload byte count
    payload length bytes
    check   u64      blake2b-64 of the payload (8-byte digest, little-endian)

Version 1 checked the payload with FNV-1a and version 2 stored operators as
complex128; files of either raise BadVersionError.
Writes are atomic (a ``.rgfo-`` temp file in the same directory, then a
rename); every verification failure on read raises its own exception type.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile

import numpy as np

from .errors import (BadChecksumError, BadKindError, BadLengthError, BadMagicError,
                     BadProvenanceError, BadVersionError, ConfigurationError)

MAGIC = b"RGFO"
VERSION = 3
KINDS = {"operator": 1, "svd": 2, "field": 3}
# Prefix of the temp files that write_envelope renames into place.
TEMP_PREFIX = ".rgfo-"
_HEADER = struct.Struct("<4sIIQQ")
_TAIL = struct.Struct("<Q")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; pure Python, so only for short provenance blobs."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _payload_check(payload: bytes) -> int:
    """blake2b-64 of an envelope payload."""
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def provenance_hash(description) -> int:
    """FNV-1a of a canonical JSON rendering of a provenance description."""
    blob = json.dumps(description, sort_keys=True, default=_canonical).encode()
    return fnv1a64(blob)


def array_digest(*arrays) -> str:
    """blake2b hex digest of the shapes, dtypes and bytes of ``arrays``.

    Provenance keys name their arrays by this digest: sums, counts and
    maxima of an array collide for shifted or mirrored data.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _canonical(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not canonicalizable: {type(obj)}")


def write_envelope(path, kind, provenance, payload: bytes):
    """Write payload under the envelope layout, atomically replacing ``path``."""
    if kind not in KINDS:
        raise ConfigurationError(f"unknown envelope kind {kind!r}")
    header = _HEADER.pack(MAGIC, VERSION, KINDS[kind], int(provenance) & 0xFFFFFFFFFFFFFFFF,
                          len(payload))
    tail = _TAIL.pack(_payload_check(payload))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=TEMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(tail)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_header(path):
    """(version, kind, provenance, payload length) of an envelope, read from
    its header alone and unverified; raises struct.error on a short file."""
    with open(path, "rb") as fh:
        _, version, kind, prov, length = _HEADER.unpack(fh.read(_HEADER.size))
    return version, kind, prov, length


def read_envelope(path, expected_kind, expected_provenance) -> bytes:
    """Read and fully verify an envelope of the expected kind and provenance,
    returning the payload bytes."""
    if expected_kind not in KINDS:
        raise ConfigurationError(f"unknown envelope kind {expected_kind!r}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + _TAIL.size:
        raise BadLengthError(f"{path}: file shorter than the envelope header")
    magic, version, kind, prov, length = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    if kind != KINDS[expected_kind]:
        raise BadKindError(f"{path}: kind {kind} != expected {KINDS[expected_kind]}")
    if prov != (int(expected_provenance) & 0xFFFFFFFFFFFFFFFF):
        raise BadProvenanceError(
            f"{path}: provenance {prov:#018x} does not match the requested inputs")
    want = _HEADER.size + length + _TAIL.size
    if len(blob) != want:
        raise BadLengthError(f"{path}: {len(blob)} bytes on disk, envelope declares {want}")
    payload = blob[_HEADER.size:_HEADER.size + length]
    (check,) = _TAIL.unpack_from(blob, _HEADER.size + length)
    if _payload_check(payload) != check:
        raise BadChecksumError(f"{path}: payload checksum mismatch")
    return payload


# -- typed payload helpers ---------------------------------------------------

def pack_matrix(mat: np.ndarray) -> bytes:
    """rows u64, cols u64, then the row-major float64 entries."""
    mat = np.ascontiguousarray(mat, dtype="<f8")
    return struct.pack("<QQ", *mat.shape) + mat.tobytes()


def unpack_matrix(payload: bytes) -> np.ndarray:
    """The matrix of ``pack_matrix``, a read-only view of ``payload``."""
    if len(payload) < 16:
        raise BadLengthError("matrix payload shorter than its dimension header")
    rows, cols = struct.unpack_from("<QQ", payload, 0)
    need = 16 + rows * cols * 8
    if len(payload) != need:
        raise BadLengthError(f"matrix payload {len(payload)} bytes, dimensions need {need}")
    return np.frombuffer(payload, dtype="<f8", offset=16).reshape(rows, cols)
