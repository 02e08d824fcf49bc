"""Binary envelope persistence for the operator cache.

On-disk layout, all integers little-endian:

    magic   4 bytes  b"RGFO"
    version u32      currently 7
    kind    u32      1 = operator, the only kind
    prov    u64      provenance hash (FNV-1a of a canonical description)
    length  u64      payload byte count
    payload length bytes
    check   u64      blake2b-64 of the payload (8-byte digest, little-endian)

An operator payload (``pack_operator``) is a sequence of float64 matrices,
each as rows u64, cols u64 and its entries, then the resonance margin (f64)
of the system that built them; ``unpack_operator`` is its one parser.  The
matrices (``MATRICES``) are the real restriction matrix R and the Cholesky
factor L of the trace Gram it was built on, both row-major, then the factors
of the whitened operator's singular system as the run that built the entry
computed them (``runge_op.StackedSvd.reduce``), column-major as LAPACK holds
them: ``dtpqrt``'s Householder block V_W and its block reflector factor T_W,
``dgebrd``'s reduced matrix A_B, its scalar factors tau (tauq; taup) and the
bidiagonal (d; e).  V_W is a dense n_x x n_v block, as large as R, but a run
that reads it applies Q_W with the stored bits and runs no whitening solve,
QR or bidiagonal reduction, so a warm report does not depend on the BLAS
thread count those would run on.

The provenance names the medium and the solve path, which fix the
guard that computed the margin, so a run that reads the entry takes the
stored margin instead of running the guard.  The margin is a function of
the guard's method and of ``solver.GUARD_ITERATIONS`` and
``solver.GUARD_SEED``, none of which the provenance names, so a change to
any of them must bump VERSION.  Likewise the provenance names the patch and
collar that L is built from, not ``analysis.build_norm_weights``'s formula,
and not the whitening or the reductions that give the factors, so a change
to any of those must bump VERSION too.

A matrix's dimensions and entries fill a multiple of 8 bytes, and
``read_envelope`` reads the payload into a buffer of its own, not at the
header's 28-byte offset, so every array read back is 8-byte aligned: numpy
hands an unaligned float64 array to no BLAS routine, and a product over one
rounds differently.

Version 1 checked the payload with FNV-1a, version 2 stored operators as
complex128, version 3 stored R without a margin, version 4 followed the
margin with the name of its guard, version 5 held R and the margin without
L and version 6 held R, L and the margin without the factors; files of any
of them raise BadVersionError.  Writes are streamed, each buffer hashed and
written in turn, and atomic (a ``.rgfo-`` temp file in the same directory,
then a rename); every verification failure on read raises its own exception
type.
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
VERSION = 7
# the header's kind field: 1, the operator
KIND = 1
# Prefix of the temp files that write_envelope renames into place.
TEMP_PREFIX = ".rgfo-"
_HEADER = struct.Struct("<4sIIQQ")
_TAIL = struct.Struct("<Q")
# resonance margin at the end of an operator payload
_MARGIN = struct.Struct("<d")
# (name, memory order) of each matrix of an operator payload, in order
MATRICES = (("R", "C"), ("L", "C"), ("V_W", "F"), ("T_W", "F"), ("A_B", "F"), ("tau", "C"),
            ("bidiagonal", "C"))
# the names of the singular system's factors, the matrices after R and L
FACTORS = tuple(name for name, _ in MATRICES[2:])

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; pure Python, so only for short provenance blobs."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _payload_check(payload) -> int:
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


def write_envelope(path, provenance, *parts):
    """Write the buffers ``parts``, in turn, as one payload under the
    envelope layout, atomically replacing ``path``.  Each part is hashed and
    written as it comes, so the payload is never joined in memory."""
    header = _HEADER.pack(MAGIC, VERSION, KIND, int(provenance) & 0xFFFFFFFFFFFFFFFF,
                          sum(memoryview(p).nbytes for p in parts))
    check = hashlib.blake2b(digest_size=8)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=TEMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for p in parts:
                check.update(p)
                fh.write(p)
            fh.write(_TAIL.pack(int.from_bytes(check.digest(), "little")))
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


def read_envelope(path, expected_provenance) -> bytearray:
    """Read and fully verify an envelope of the expected provenance,
    returning the payload in a writable buffer of its own."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + _TAIL.size:
            raise BadLengthError(f"{path}: file shorter than the envelope header")
        magic, version, kind, prov, length = _HEADER.unpack(fh.read(_HEADER.size))
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
        if size != want:
            raise BadLengthError(f"{path}: {size} bytes on disk, envelope declares {want}")
        # not a slice of the whole file, whose 28-byte header would misalign it
        payload = bytearray(length)
        got = fh.readinto(payload)
        tail = fh.read(_TAIL.size)
    if got != length or len(tail) != _TAIL.size:
        raise BadLengthError(f"{path}: file shorter than its envelope declares")
    if _payload_check(payload) != _TAIL.unpack(tail)[0]:
        raise BadChecksumError(f"{path}: payload checksum mismatch")
    return payload


# -- the operator payload ----------------------------------------------------

def _matrix_parts(mat, order):
    # the entries as a buffer in ``order``, copied only when held in another
    mat = np.require(mat, "<f8", order)
    return struct.pack("<QQ", *mat.shape), mat.reshape(-1, order=order)


def pack_operator(mat: np.ndarray, chol: np.ndarray, factors, margin) -> list:
    """The payload of R, L and the ``FACTORS`` as the buffers
    ``write_envelope`` streams: each matrix as rows u64, cols u64 and its
    float64 entries in the memory order ``MATRICES`` gives, then the
    resonance margin f64."""
    parts = []
    for (_, order), m in zip(MATRICES, (mat, chol, *factors), strict=True):
        parts.extend(_matrix_parts(m, order))
    return parts + [_MARGIN.pack(margin)]


def unpack_operator(payload):
    """(R, L, factors, margin) of ``pack_operator``'s joined buffers, the
    matrices views of ``payload``: R and L read-only, the ``FACTORS`` a tuple
    as writable as ``payload`` is, since LAPACK writes into what it reads."""
    matrices, offset = [], 0
    for name, order in MATRICES:
        if len(payload) < offset + 16:
            raise BadLengthError(f"operator payload of {len(payload)} bytes ends before "
                                 f"the dimensions of {name}")
        rows, cols = struct.unpack_from("<QQ", payload, offset)
        end = offset + 16 + 8 * rows * cols
        if len(payload) < end:
            raise BadLengthError(f"operator payload of {len(payload)} bytes ends before "
                                 f"{name}'s {rows}x{cols} entries")
        mat = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=offset + 16)
        matrices.append(mat.reshape((rows, cols), order=order))
        offset = end
    if len(payload) != offset + _MARGIN.size:
        raise BadLengthError(f"operator payload of {len(payload)} bytes, its matrices and "
                             f"the margin need {offset + _MARGIN.size}")
    mat, chol, *factors = matrices
    mat.flags.writeable = chol.flags.writeable = False
    return mat, chol, tuple(factors), _MARGIN.unpack_from(payload, offset)[0]
