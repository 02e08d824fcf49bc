"""Binary envelope persistence for the operator cache.

On-disk layout, all integers little-endian:

    magic   4 bytes  b"RGFO"
    version u32      currently 6
    kind    u32      1 = operator, the only kind
    prov    u64      provenance hash (FNV-1a of a canonical description)
    length  u64      payload byte count
    payload length bytes
    check   u64      blake2b-64 of the payload (8-byte digest, little-endian)

An operator payload (``pack_operator``) is the real restriction matrix R,
then the Cholesky factor L of the trace Gram it was built on (each as rows
u64, cols u64 and its row-major float64 entries), then the resonance margin
(f64) of the system that built it; ``unpack_operator`` is its one parser.
The provenance names the medium and the solve path, which fix the
guard that computed the margin, so a run that reads the entry takes the
stored margin instead of running the guard.  The margin is a function of
the guard's method and of ``solver.GUARD_ITERATIONS`` and
``solver.GUARD_SEED``, none of which the provenance names, so a change to
any of them must bump VERSION.  Likewise the provenance names the patch and
collar that L is built from, not ``analysis.build_norm_weights``'s formula,
so a change to that formula must bump VERSION too.  L is stored as raw
float64, so a run that reads it whitens with the same bits as the run that
built it.

Version 1 checked the payload with FNV-1a, version 2 stored operators as
complex128, version 3 stored R without a margin, version 4 followed the
margin with the name of its guard and version 5 held R and the margin
without L; files of any of them raise BadVersionError.  Writes are atomic
(a ``.rgfo-`` temp file in the same directory, then a rename); every
verification failure on read raises its own exception type.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile

import numpy as np

from .errors import (BadChecksumError, BadKindError, BadLengthError, BadMagicError,
                     BadProvenanceError, BadVersionError)

MAGIC = b"RGFO"
VERSION = 6
# the header's kind field: 1, the operator
KIND = 1
# Prefix of the temp files that write_envelope renames into place.
TEMP_PREFIX = ".rgfo-"
_HEADER = struct.Struct("<4sIIQQ")
_TAIL = struct.Struct("<Q")
# resonance margin at the end of an operator payload
_MARGIN = struct.Struct("<d")

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
    blob = json.dumps(description, sort_keys=True).encode()
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


def write_envelope(path, provenance, payload: bytes):
    """Write payload under the envelope layout, atomically replacing ``path``."""
    header = _HEADER.pack(MAGIC, VERSION, KIND, int(provenance) & 0xFFFFFFFFFFFFFFFF,
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
    its header alone and unverified; raises BadLengthError on a short file."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise BadLengthError(f"{path}: file shorter than the envelope header")
    _, version, kind, prov, length = _HEADER.unpack(head)
    return version, kind, prov, length


def read_envelope(path, expected_provenance) -> bytes:
    """Read and fully verify an envelope of the expected provenance,
    returning the payload bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + _TAIL.size:
        raise BadLengthError(f"{path}: file shorter than the envelope header")
    magic, version, kind, prov, length = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}")
    if kind != KIND:
        raise BadKindError(f"{path}: kind {kind} != expected {KIND}")
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


# -- the operator payload ----------------------------------------------------

def _matrix_parts(mat):
    # the entries as a buffer, copied once by the join that packs them
    mat = np.ascontiguousarray(mat, dtype="<f8")
    return struct.pack("<QQ", *mat.shape), mat.data


def pack_operator(mat: np.ndarray, chol: np.ndarray, margin) -> bytes:
    """R, then L, each as rows u64, cols u64 and its row-major float64
    entries, then the resonance margin f64."""
    return b"".join((*_matrix_parts(mat), *_matrix_parts(chol), _MARGIN.pack(margin)))


def unpack_operator(payload: bytes):
    """(matrix, factor, margin) of ``pack_operator``; the two matrices are
    read-only views of ``payload``."""
    matrices, offset = [], 0
    for name in ("R", "L"):
        if len(payload) < offset + 16:
            raise BadLengthError(f"operator payload of {len(payload)} bytes ends before "
                                 f"the dimensions of {name}")
        rows, cols = struct.unpack_from("<QQ", payload, offset)
        end = offset + 16 + 8 * rows * cols
        if len(payload) < end:
            raise BadLengthError(f"operator payload of {len(payload)} bytes ends before "
                                 f"{name}'s {rows}x{cols} entries")
        mat = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset + 16)
        matrices.append(mat.reshape(rows, cols))
        offset = end
    if len(payload) != offset + _MARGIN.size:
        raise BadLengthError(f"operator payload of {len(payload)} bytes, R, L and the "
                             f"margin need {offset + _MARGIN.size}")
    return (*matrices, _MARGIN.unpack_from(payload, offset)[0])
