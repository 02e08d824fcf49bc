"""Boundary-to-interior restriction operator, its weighted SVD and the
spectral-filter kernel shared by the truncated approximant and the Cauchy
ridge solve.

The operator maps tangential boundary data on the patch basis (one column
per selected edge dof) to the stacked (E, H) dofs restricted to the target
region.  Real boundary data in a real medium give a real E and a purely
imaginary H, so the operator is A = diag(I_E, i I_H) R with R real, the
phase convention of the Cauchy operator; R is what is assembled, cached and
decomposed.  Inner products are weighted: the boundary Gram on the data
side, diagonal volume weights on the field side.  The adjoint is realized two
ways, a dense matrix conjugation and a PDE route through one adjoint solve
with homogeneous tangential data plus a boundary flux extraction; their
agreement is a test target, not an assumption.  Runge and Cauchy take
their SVDs one way, ``StackedSvd``, which forms no singular vector.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_lapack, lapack

from .analysis import TraceGram, VolumeWeights, build_norm_weights
from .errors import BadVersionError, ConfigurationError, NumericError
from .geometry import BoundaryPatch
from .solver import SystemMatrix, check_margin, real_matmul, solve_bvp
from . import store


class RestrictionOperator:
    """The restriction f -> (E_f, H_f) on the region, with provenance.

    ``matrix`` is the real R of A = diag(I_E, i I_H) R: its first
    ``volume.x_edge_idx`` rows are E, the rest are H / i.
    """

    def __init__(self, matrix, gram: TraceGram, volume: VolumeWeights, provenance):
        self.matrix = np.ascontiguousarray(matrix, dtype=float)
        self.gram = gram
        self.volume = volume
        self.provenance = provenance
        if not np.isfinite(self.matrix).all():
            raise NumericError("restriction operator carries non-finite entries")
        self.matrix.flags.writeable = False

    @property
    def shape(self):
        return self.matrix.shape

    def phase(self):
        """The diagonal of diag(I_E, i I_H)."""
        ne = len(self.volume.x_edge_idx)
        return np.where(np.arange(self.shape[0]) < ne, 1.0 + 0j, 1j)

    def complex_matrix(self):
        """The dense complex A = diag(I_E, i I_H) R."""
        return self.phase()[:, None] * self.matrix

    def apply(self, f):
        return self.phase() * real_matmul(self.matrix, f)


def operator_provenance(sys: SystemMatrix, patch: BoundaryPatch, collar, volume: VolumeWeights):
    desc = {
        "grid": list(sys.grid.key()[1:]),
        "material": list(sys.material.key()[1:]),
        "omega": sys.omega,
        "patch": list(patch.key()[1:]),
        "region": list(volume.region.key()[1:]),
        "collar": collar,
        # the solve that built the columns: its tolerance and its path, which
        # with the material (constant or not) fix its route and the guard
        "solver_tol": sys.solver_tol,
        "direct": sys.direct,
    }
    return store.provenance_hash(desc)


def assemble_restriction(sys: SystemMatrix, gram: TraceGram, volume: VolumeWeights,
                         *more: VolumeWeights):
    """One forward solve per boundary basis vector of ``gram``, restricted to
    the region of ``volume`` and of every volume in ``more``.

    Returns one operator per region, a single operator when ``more`` is
    empty.  Requires every region compactly contained with a connected
    complement (the standing geometry hypotheses of the approximation
    argument).  The columns are solved one ``solve_bvp`` call each, not as
    one block, because the benchmark's tracer self-test counts these calls.
    """
    every = (volume,) + more
    for v in every:
        v.region.require_target()
    cols = [np.empty((v.n_x, gram.n_v)) for v in every]
    for i in range(gram.n_v):
        fields = solve_bvp(sys, gram.trace(np.eye(1, gram.n_v, i)[0]))
        for v, c in zip(every, cols):
            c[:, i] = v.restrict(fields)
    ops = tuple(RestrictionOperator(c, gram, v,
                                    operator_provenance(sys, gram.patch, gram.collar, v))
                for v, c in zip(every, cols))
    return ops if more else ops[0]


def apply_adjoint(sys: SystemMatrix, F, gram: TraceGram, volume: VolumeWeights):
    """Adjoint applied through the PDE: one interior solve with homogeneous
    tangential data against the volume-weighted source built from F, then the
    boundary flux on the patch dofs, then the inverse boundary Gram.

    F stacks the region-restricted (E, H) dofs, matching volume.restrict.
    """
    F = np.asarray(F, dtype=complex)
    if F.shape != (volume.n_x,):
        raise ConfigurationError(f"adjoint input length {F.shape} != {volume.n_x}")
    ne = len(volume.x_edge_idx)
    FE = F[:ne]
    FH = F[ne:]
    grid = sys.grid

    g = np.zeros(grid.n_edges, dtype=complex)
    g[volume.x_edge_idx] = volume.x_edge_w * FE
    fh = np.zeros(grid.n_faces, dtype=complex)
    fh[volume.x_face_idx] = volume.x_face_w * FH
    # conj(1/(i omega)) = i / omega
    g = g + (1j / sys.omega) * (sys.curl.T @ (sys.mu_inv_point.T @ fh))

    u = sys.solve_interior(g[sys.idx_interior])
    # L is exactly symmetric: L_IB^T is its boundary-interior block
    flux = g[sys.idx_boundary] - sys.L_IB.T @ u
    return gram.v_solve(flux[np.searchsorted(sys.idx_boundary, gram.v_dofs)])


def matrix_adjoint(op: RestrictionOperator, F):
    """Dense oracle: G_V^{-1} A^H G_X F = G_V^{-1} R^T diag(I, -iI) G_X F."""
    GF = op.volume.x_weights() * np.asarray(F, dtype=complex)
    return op.gram.v_solve(real_matmul(op.matrix.T, op.phase().conj() * GF))


QR_BLOCK = 32  # dtpqrt block size: the fastest of 8-64 at 10^3


def _lapack(name, *args, **kwargs):
    """Call a scipy LAPACK wrapper; raise NumericError on a nonzero info."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {name} returned info {info}")
    return out


# own function objects: setting argtypes on ctypes.pythonapi's would be global
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack_ref(name, *args):
    """Call a LAPACK routine scipy.linalg.lapack lacks from scipy's Cython table,
    with ints, one-letter strs and writable Fortran float64 or int32 arrays by
    reference, then INFO; raise NumericError on a nonzero info."""
    if not all(a.dtype in (np.float64, np.int32) and a.flags.f_contiguous and a.flags.writeable
               for a in args if isinstance(a, np.ndarray)):
        raise TypeError(f"LAPACK {name} needs writable Fortran float64 or int32 arrays")
    refs = [a.ctypes.data if isinstance(a, np.ndarray) else ctypes.byref(
        ctypes.c_char(a.encode()) if isinstance(a, str) else ctypes.c_int(a)) for a in args]
    cap, info = cython_lapack.__pyx_capi__[name], ctypes.c_int()
    ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (len(args) + 1))(
        _capsule_pointer(cap, _capsule_name(cap)))(*refs, ctypes.byref(info))
    if info.value != 0:
        raise NumericError(f"LAPACK {name} returned info {info.value}")


def _lapack_work(name, *args):
    """``_lapack_ref`` with WORK and LWORK appended, sized by an LWORK = -1 query."""
    size = np.zeros(1)
    _lapack_ref(name, *args, size, -1)
    _lapack_ref(name, *args, np.zeros(int(size[0])), int(size[0]))


# dlalsd's bound on a bidiagonal block whose singular vectors are formed explicitly
SMLSIZ = 25
EPS = np.finfo(float).eps / 2  # LAPACK's dlamch("E"): the split and the clamp below


def _touched(name, *pairs):
    """Raise ValueError unless each (array, length) pair's array holds the
    ``length`` entries LAPACK ``name`` touches in it."""
    for a, length in pairs:
        if a.size < length:
            raise ValueError(f"LAPACK {name} touches {length} entries of an array of {a.size}")


def _compact_lengths(m, levels):
    """The entries dlasda and dlalsa touch in each compact-form array of an
    m-row block (leading dimensions m) whose divide-and-conquer tree is
    ``levels`` deep, as LAPACK documents them."""
    return {"u": m * SMLSIZ, "vt": m * (SMLSIZ + 1), "k": m, "difl": m * levels,
            "difr": 2 * m * levels, "z": m * levels, "poles": 2 * m * levels,
            "givptr": m, "givcol": 2 * m * levels, "perm": m * levels,
            "givnum": 2 * m * levels, "c": m, "s": m}


class _SmallBlock:
    """A block of at most SMLSIZ rows with explicit singular vectors (``dlasdq``);
    a 1 x 1 block d gets singular value |d| and right vector sign(d)."""

    def __init__(self, d, e):
        m = len(d)
        self._u, self._vt = np.eye(m, order="F"), np.eye(m, order="F")
        _touched("dlasdq", (e, m - 1))
        _lapack_ref("dlasdq", "U", 0, m, m, m, 0, d, e, self._vt, m, self._u, m, np.zeros(1),
                    1, np.zeros(4 * m))

    def apply(self, icompq, b):
        return self._vt.T @ b if icompq else self._u.T @ b


class _CompactBlock:
    """A block of more than SMLSIZ rows in ``dlasda``'s compact form: the
    leaves' singular vectors and, per merge, the secular equation's poles,
    Givens rotations and deflation permutation (Gu and Eisenstat, SIAM J.
    Matrix Anal. Appl. 16, 1995).  Its singular values stay in ``d`` in
    dlasda's order, which is not sorted; ``dlalsa`` applies U^T or V in it."""

    _INTS = ("k", "givptr", "givcol", "perm")

    def __init__(self, d, e):
        m = self.m = len(d)
        # as dlalsd does: a zero diagonal entry would be a pole of the secular equation
        tiny = np.abs(d) < EPS
        d[tiny] = np.copysign(EPS, d[tiny])
        # dlasdt's depth, int(log2(m / (SMLSIZ + 1))) + 1, is below m's bit length
        self._arrays = {name: np.zeros(length, np.int32 if name in self._INTS else float)
                        for name, length in _compact_lengths(m, m.bit_length()).items()}
        self._check("dlasda", (e, m - 1))
        _lapack_ref("dlasda", 1, SMLSIZ, m, 0, d, e, *self._form(),
                    np.zeros(6 * m + (SMLSIZ + 1) ** 2), np.zeros(7 * m, np.int32))

    def _form(self):
        a, m = self._arrays, self.m
        return (a["u"], m, a["vt"], a["k"], a["difl"], a["difr"], a["z"], a["poles"],
                a["givptr"], a["givcol"], m, a["perm"], a["givnum"], a["c"], a["s"])

    def _check(self, name, *pairs):
        levels = int(math.log(self.m / (SMLSIZ + 1)) / math.log(2)) + 1  # dlasdt's
        need = _compact_lengths(self.m, levels)
        _touched(name, *pairs, *((self._arrays[key], length) for key, length in need.items()))

    def apply(self, icompq, b):
        """U^T b (``icompq`` 0) or V b (1) for an (m, k) block ``b``, which a
        Fortran-ordered ``b`` gives up as workspace."""
        b, m, k = np.asfortranarray(b), self.m, b.shape[1]
        bx = np.empty(b.shape, order="F")
        self._check("dlalsa", (b, m * k))
        _lapack_ref("dlalsa", icompq, SMLSIZ, m, k, b, m, bx, m, *self._form(), np.zeros(m),
                    np.zeros(3 * m, np.int32))
        return bx


class BidiagonalSvd:
    """A = U S V^T for a square real A (Fortran-ordered float64, overwritten
    and kept), S descending, with U and V never formed: ``dgebrd`` reduces A
    in place to the bidiagonal B = Q_B^T A P_B, keeping Q_B and P_B as
    Householder vectors, and B = U_B S V_B^T is taken as LAPACK's
    ``dlalsd`` takes it.  B is scaled by its largest entry and split at every
    superdiagonal entry below eps; a block of at most ``SMLSIZ`` rows gets
    explicit singular vectors, a larger one ``dlasda``'s compact form.
    U = Q_B U_B and V = P_B V_B are only applied to columns, S's sort
    permutation to the coordinates; ``right`` returns the ``rows`` of V y."""

    def __init__(self, a, rows=slice(None)):
        self._a, self._rows, n = a, rows, len(a)
        if a.shape != (n, n):
            raise ValueError(f"BidiagonalSvd needs a square matrix, got {a.shape}")
        d, e, self._tauq, self._taup = (np.zeros(n) for _ in range(4))
        _lapack_work("dgebrd", n, n, a, n, d, e, self._tauq, self._taup)
        scale = max(np.abs(d).max(initial=0.0), np.abs(e).max(initial=0.0))
        if scale:
            d /= scale
            e /= scale
        cuts = [0, *(np.flatnonzero(np.abs(e[:n - 1]) < EPS) + 1), n]
        self._blocks = [(lo, hi, _SmallBlock(d[lo:hi], e[lo:hi - 1]) if hi - lo <= SMLSIZ else
                         _CompactBlock(d[lo:hi], e[lo:hi - 1]))
                        for lo, hi in zip(cuts, cuts[1:])]
        self._order = np.argsort(-d, kind="stable")
        self.S = d[self._order] * scale

    def _apply(self, icompq, b):
        """U_B^T b (``icompq`` 0) or V_B b (1), in the blocks' order of S."""
        out = np.empty(b.shape, order="F")
        for lo, hi, block in self._blocks:
            out[lo:hi] = block.apply(icompq, b[lo:hi])
        return out

    def coords(self, b):
        """U^T b for a real Fortran-ordered (n, k) block ``b``, overwritten."""
        n = len(self.S)
        if len(b) != n:
            raise ValueError(f"U^T b needs {n} rows, got {len(b)}")
        _lapack_work("dormbr", "Q", "L", "T", n, b.shape[1], n, self._a, n, self._tauq, b, n)
        return self._apply(0, b)[self._order]

    def right(self, y):
        """V[:, :r] y, an (n, k) block, for a real (r,) vector or (r, k) block."""
        n, y = len(self.S), y.reshape(len(y), -1)
        z = np.zeros((n, y.shape[1]), order="F")
        z[self._order[:len(y)]] = y
        x = self._apply(1, z)
        _lapack_work("dormbr", "P", "L", "N", n, x.shape[1], n, self._a, n, self._taup, x, n)
        return x[self._rows]


class StackedSvd(BidiagonalSvd):
    """The SVD of a stacked W = [T; B], T an n x n upper triangle and B m x n
    (Fortran-ordered float64, both overwritten): LAPACK's triangular-pentagonal
    QR ``dtpqrt`` keeps Q_W as Householder vectors, and R_W = U S V^T is
    taken as a ``BidiagonalSvd``, so no singular vector of W is formed."""

    def __init__(self, top, low, rows=slice(None)):
        top, self._v, self._t = _lapack("dtpqrt", 0, min(QR_BLOCK, len(top)), top, low,
                                        overwrite_a=True, overwrite_b=True)
        super().__init__(top, rows)

    def split(self, top, low):
        """(U^T w, ||w outside the range of W||^2) for complex columns w =
        [top; low], given as 2k real columns, the k real parts then the k
        imaginary parts, and overwritten: Q_W^T w's first n rows and the
        squared norms of its last m."""
        top, low = _lapack("dtpmqrt", 0, self._v, self._t, top, low, trans="T",
                           overwrite_a=True, overwrite_b=True)
        c, out2, k = self.coords(top), np.sum(low ** 2, axis=0), top.shape[1] // 2
        return c[:, :k] + 1j * c[:, k:], out2[:k] + out2[k:]


class SvdBundle:
    """Weighted singular system on the numerical range of A: A phi_k =
    sigma_k Psi_k, phi^T G_V phi = I and Psi^H G_X Psi = I, phi real and Psi
    carrying the phase of A.  Neither is formed: ``right`` maps coordinates
    on the modes to phi y, ``expand`` reads coordinates on Psi."""

    def __init__(self, svd: StackedSvd, rank, op: RestrictionOperator):
        self.sigma, self.rank, self._svd = svd.S[:rank], rank, svd
        self._white = op.phase().conj() * np.sqrt(op.volume.x_weights())
        self.gram, self.volume, self.provenance = op.gram, op.volume, op.provenance
        self.sigma.flags.writeable = False

    def right(self, y):
        """phi y = L_V^{-T} V y, an (n_v, k) block, for a real (rank, k) block."""
        return sla.solve_triangular(self.gram.chol_V.T, self._svd.right(y), lower=False)

    def expand(self, W):
        """The target W, an (n_x,) vector or (n_x, k) block, on the kept modes:
        c_k = <W, Psi_k>_X read off the whitened conj(phase) W_X^{1/2} W, and
        its squared X-norm outside their span, with the dropped modes' |c_k|^2."""
        W = np.asarray(W, dtype=complex)
        w, k, r = self._white[:, None] * W.reshape(len(W), -1), W.size // len(W), self.rank
        c, out2 = self._svd.split(np.zeros((self.gram.n_v, 2 * k), order="F"),
                                  np.asfortranarray(np.column_stack([w.real, w.imag])))
        out2 = out2 + np.sum(np.abs(c[r:]) ** 2, axis=0)
        return Expansion(self.sigma, self.right, c[:r].reshape((r,) + W.shape[1:]),
                         out2.reshape(W.shape[1:])[()])


def weighted_svd(op: RestrictionOperator) -> SvdBundle:
    """SVD of the Cholesky-whitened operator on weighted bases.

    The whitened A is diag(I, iI) times the real B = W_X^{1/2} R L_V^{-T},
    so a real SVD B = U S V^T, taken as the ``StackedSvd`` of B below a zero
    triangle, gives A's: phi = L_V^{-T} V and Psi = diag(I, iI) U / sqrt(w).
    Only the modes above numpy's ``matrix_rank`` floor, sigma_k >
    max(n_x, n_v) eps sigma_0, are kept: below it they are rounding noise.
    """
    # B = W_X^{1/2} R L_V^{-T}, Fortran-ordered as the transpose of a C array
    B = (sla.solve_triangular(op.gram.chol_V, op.matrix.T, lower=True)
         * np.sqrt(op.volume.x_weights())).T
    svd = StackedSvd(np.zeros((op.shape[1],) * 2, order="F"), np.asfortranarray(B))
    rank = int(np.count_nonzero(svd.S > max(B.shape) * np.finfo(float).eps * svd.S[0]))
    return SvdBundle(svd, rank, op)


class Expansion:
    """Data on a singular system: values ``sigma`` (descending), the data's
    coordinates ``coords`` on the left vectors, an (r,) vector or an (r, k)
    block, and ``out2``, each datum's squared norm outside their span;
    ``right`` maps real (r, k) mode coordinates to right-vector combinations.
    Per-datum results are scalars or (k,) arrays."""

    def __init__(self, sigma, right, coords, out2):
        self.sigma, self.right, self.coords, self.out2 = sigma, right, coords, out2

    def _rows(self, x):
        """A per-mode vector x shaped to broadcast over the data columns."""
        return x.reshape(x.shape + (1,) * (np.ndim(self.coords) - 1))

    def _solution(self, y):
        """``right`` of complex per-mode y, each column's parts side by side."""
        y = np.ascontiguousarray(y, dtype=complex)
        x = self.right(y.reshape(len(y), -1).view(float))
        return np.ascontiguousarray(x).view(complex).reshape(x.shape[:1] + y.shape[1:])

    def truncate(self, alpha):
        """Keep the modes with sigma_k >= alpha (ties included): the solution,
        the dropped tail sqrt(sum_{sigma_k < alpha} |c_k|^2) and the kept count.

        A (J,) array of alpha truncates a single datum at every alpha through
        one ``right``: an (n_v, J) block of solutions, (J,) tails and counts."""
        alphas = np.asarray(alpha, dtype=float)
        if alphas.ndim > 1 or (alphas.ndim and np.ndim(self.coords) != 1):
            raise ConfigurationError("an array of alpha needs one axis and a single datum")
        if not (alphas > 0).all():
            raise ConfigurationError("alpha must be positive")
        # sigma descends: alpha keeps the leading modes and drops the rest
        kept = np.count_nonzero(self.sigma[:, None] >= alphas.reshape(-1), axis=0)
        c = self.coords if np.ndim(self.coords) > 1 else self.coords[:, None]
        y = np.where(np.arange(len(c))[:, None] < kept, c / self.sigma[:, None], 0.0)
        tail = np.sqrt([np.sum(np.abs(self.coords[k:]) ** 2, axis=0) for k in kept])
        if alphas.ndim:
            return self._solution(y), tail, kept
        return self._solution(y.reshape(self.coords.shape)), tail[0][()], int(kept[0])

    def ridge(self, lam):
        """The Tikhonov solution, filter sigma_k / (sigma_k^2 + lam)."""
        S = self._rows(self.sigma)
        return self._solution(S / (S ** 2 + lam) * self.coords)

    def ridge_misfit(self, lam):
        """Residual norm of ``ridge(lam)``: the in-span part damped by
        lam / (sigma_k^2 + lam), in quadrature with the out-of-span norm."""
        S2 = self._rows(self.sigma) ** 2
        resid_in = (lam / (S2 + lam)) * self.coords
        return np.sqrt(np.linalg.norm(resid_in, axis=0) ** 2 + self.out2)[()]

    def discrepancy_lambda(self, target, lo=1e-14, hi=1e6, iters=80):
        """Bisect each column's monotone misfit(lambda) curve to its target;
        ``lo`` if misfit(lo) reaches it, else ``hi`` if misfit(hi) stays below."""
        llo = np.full(np.shape(target), np.log10(lo))
        lhi = np.full(np.shape(target), np.log10(hi))
        for _ in range(iters):
            mid = 0.5 * (llo + lhi)
            below = self.ridge_misfit(10.0 ** mid) < target
            llo = np.where(below, mid, llo)
            lhi = np.where(below, lhi, mid)
        lam = np.where(self.ridge_misfit(hi) <= target, hi, 10.0 ** (0.5 * (llo + lhi)))
        return np.where(self.ridge_misfit(lo) >= target, lo, lam)[()]


def alpha_for_j(j, C, theta, m):
    """Invert the calibration 1/j = (log(C / alpha^(1-theta)))^(-m/2):

        alpha = (C exp(-j^{2/m}))^{1/(1-theta)}.
    """
    if not (0 < theta < 1):
        raise ConfigurationError("theta must lie strictly inside (0, 1)")
    if not (j >= 1 and C > 0 and m > 0):
        raise ConfigurationError("need j >= 1, C > 0, m > 0")
    return float((C * np.exp(-float(j) ** (2.0 / m))) ** (1.0 / (1.0 - theta)))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def save_operator(op: RestrictionOperator, path, margin):
    """Write R and the trace Gram's factor L with ``margin``, the resonance
    margin of the system that built them (``solver.check_margin``'s)."""
    store.write_envelope(path, op.provenance,
                         store.pack_operator(op.matrix, op.gram.chol_V, margin))


def load_operator(path, patch: BoundaryPatch, collar, volume: VolumeWeights,
                  sys: SystemMatrix):
    """(operator, margin) of the entry at ``path`` for these inputs; the
    operator's Gram wraps the stored factor, so no Gram is built."""
    prov = operator_provenance(sys, patch, collar, volume)
    matrix, chol_V, margin = store.unpack_operator(store.read_envelope(path, prov))
    gram = TraceGram(patch, collar, chol_V)
    if matrix.shape != (volume.n_x, gram.n_v):
        raise ConfigurationError(
            f"cached operator shape {matrix.shape} != ({volume.n_x}, {gram.n_v})")
    return RestrictionOperator(matrix, gram, volume, prov), margin


def cached_restriction(sys: SystemMatrix, patch: BoundaryPatch, collar, volume: VolumeWeights,
                       cache_dir, resonance_threshold):
    """The restriction operator of ``assemble_restriction`` on the trace Gram
    of ``patch`` and ``collar``, read from ``cache_dir`` when an entry of the
    current envelope version holds it; a missing entry, or one of an older
    version, is assembled and (re)written with the Gram's factor and the
    system's resonance margin.  The operator's ``gram`` is the Gram read or
    built.

    The provenance fixes the guard, so a hit's stored margin is compared with
    no guard solve and no Gram built (``check_margin``); a miss runs the guard.
    The margin is checked against ``resonance_threshold`` before the Gram is
    built, any column is solved or an entry is written."""
    op = path = margin = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        prov = operator_provenance(sys, patch, collar, volume)
        path = os.path.join(cache_dir, f"operator-{prov:016x}.rgfo")
        if os.path.exists(path):
            try:
                op, margin = load_operator(path, patch, collar, volume, sys)
            except BadVersionError:
                pass
    margin = check_margin(sys, resonance_threshold, margin)
    if op is None:
        op = assemble_restriction(sys, build_norm_weights(patch, collar), volume)
        if path:
            save_operator(op, path, margin)
    return op
