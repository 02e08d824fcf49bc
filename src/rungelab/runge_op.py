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
agreement is a test target, not an assumption.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg as sla

from .analysis import TraceGram, VolumeWeights
from .errors import BadVersionError, ConfigurationError, NumericError
from .solver import SystemMatrix, check_margin, real_matmul, resonance_guard, solve_bvp
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


def operator_provenance(sys: SystemMatrix, gram: TraceGram, volume: VolumeWeights):
    desc = {
        "grid": list(sys.grid.key()[1:]),
        "material": list(sys.material.key()[1:]),
        "omega": sys.omega,
        "patch": list(gram.patch.key()[1:]),
        "region": list(volume.region.key()[1:]),
        "collar": gram.collar,
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
    ops = tuple(RestrictionOperator(c, gram, v, operator_provenance(sys, gram, v))
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


class SvdBundle:
    """Weighted singular system on the numerical range of A:
    A phi_k = sigma_k Psi_k with phi^T G_V phi = I and Psi^H G_X Psi = I.
    phi is real; Psi carries the phase of A."""

    def __init__(self, sigma, phi, psi, gram: TraceGram, volume: VolumeWeights, provenance):
        self.sigma = np.ascontiguousarray(sigma, dtype=float)
        self.phi = np.ascontiguousarray(phi, dtype=float)
        self.psi = np.ascontiguousarray(psi, dtype=complex)
        self.gram = gram
        self.volume = volume
        self.provenance = provenance
        if np.any(np.diff(self.sigma) > 0):
            raise NumericError("singular values must be sorted descending")
        for arr in (self.sigma, self.phi, self.psi):
            arr.flags.writeable = False

    @property
    def rank(self):
        return len(self.sigma)


def weighted_svd(op: RestrictionOperator) -> SvdBundle:
    """SVD of the Cholesky-whitened operator, mapped back to weighted bases.

    The whitened A is diag(I, iI) times the real B = W_X^{1/2} R L_V^{-T},
    so a real SVD B = U S V^T gives A's: phi = L_V^{-T} V and
    Psi = diag(I, iI) U / sqrt(w).  Only the triplets above numpy's
    ``matrix_rank`` floor, sigma_k > max(n_x, n_v) eps sigma_0, are kept:
    below it the singular vectors are rounding noise.
    """
    chol_V = op.gram.chol_V
    sqrt_x = np.sqrt(op.volume.x_weights())
    # B = W_X^{1/2} R L_V^{-T}
    B = sqrt_x[:, None] * sla.solve_triangular(chol_V, op.matrix.T, lower=True).T
    try:
        U, S, Vt = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"whitened SVD failed: {exc}") from exc
    rank = int(np.count_nonzero(S > max(B.shape) * np.finfo(float).eps * S[0]))
    phi = sla.solve_triangular(chol_V.T, Vt[:rank].T, lower=False)
    psi = op.phase()[:, None] * (U[:, :rank] / sqrt_x[:, None])
    return SvdBundle(S[:rank], phi, psi, op.gram, op.volume, op.provenance)


class Expansion:
    """Data on a singular system: values ``sigma`` (descending), real right
    vectors ``right``, the data's coordinates ``coords`` on the left vectors,
    an (r,) vector or an (r, k) block, and ``out2``, each datum's squared norm
    outside their span.  Per-datum results are scalars or (k,) arrays."""

    def __init__(self, sigma, right, coords, out2):
        self.sigma, self.right, self.coords, self.out2 = sigma, right, coords, out2

    def _rows(self, x):
        """A per-mode vector x shaped to broadcast over the data columns."""
        return x.reshape(x.shape + (1,) * (np.ndim(self.coords) - 1))

    def truncate(self, alpha):
        """Keep the modes with sigma_k >= alpha (ties included): the solution,
        the dropped tail sqrt(sum_{sigma_k < alpha} |c_k|^2) and the kept count."""
        if not (alpha > 0):
            raise ConfigurationError("alpha must be positive")
        keep = self.sigma >= alpha
        x = real_matmul(self.right[:, keep], self.coords[keep] / self._rows(self.sigma[keep]))
        tail = np.sqrt(np.sum(np.abs(self.coords[~keep]) ** 2, axis=0))
        return x, tail[()], int(np.count_nonzero(keep))

    def ridge(self, lam):
        """The Tikhonov solution, filter sigma_k / (sigma_k^2 + lam): one
        product of the real right vectors with the real view of the filtered
        coordinates, each column's real and imaginary part side by side."""
        S = self._rows(self.sigma)
        y = np.ascontiguousarray(S / (S ** 2 + lam) * self.coords, dtype=complex)
        x = self.right @ y.reshape(len(y), -1).view(float)
        return np.ascontiguousarray(x).view(complex).reshape(x.shape[:1] + y.shape[1:])

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


def expand_target(svd: SvdBundle, W) -> Expansion:
    """The target W on the singular system of ``svd``: its coefficients
    c_k = <W, Psi_k>_X and the squared X-norm of its part outside their span."""
    W = np.asarray(W, dtype=complex)
    coeffs = svd.psi.conj().T @ (svd.volume.x_weights() * W)
    residual = svd.volume.x_norm(W - svd.psi @ coeffs)
    return Expansion(svd.sigma, svd.phi, coeffs, residual ** 2)


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

def save_operator(op: RestrictionOperator, path, sys: SystemMatrix):
    """Write R with the resonance margin of ``sys``, the system that built it
    (``resonance_guard``, which returns a margin already checked at no
    cost)."""
    store.write_envelope(path, "operator", op.provenance,
                         store.pack_operator(op.matrix, resonance_guard(sys)))


def load_operator(path, gram: TraceGram, volume: VolumeWeights, sys: SystemMatrix):
    """(operator, margin) of the entry at ``path`` for these inputs."""
    prov = operator_provenance(sys, gram, volume)
    matrix, margin = store.unpack_operator(store.read_envelope(path, "operator", prov))
    if matrix.shape != (volume.n_x, gram.n_v):
        raise ConfigurationError(
            f"cached operator shape {matrix.shape} != ({volume.n_x}, {gram.n_v})")
    return RestrictionOperator(matrix, gram, volume, prov), margin


def cached_restriction(sys: SystemMatrix, gram: TraceGram, volume: VolumeWeights,
                       cache_dir, resonance_threshold):
    """The restriction operator of ``assemble_restriction``, read from
    ``cache_dir`` when an entry of the current envelope version holds it; a
    missing entry, or one of an older version, is assembled and (re)written
    with the system's resonance margin.

    The provenance fixes the guard, so a hit sets the stored margin on
    ``sys``: a warm run makes no guard solve.  The margin is checked
    against ``resonance_threshold`` before any column is solved."""
    op = path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir,
                            f"operator-{operator_provenance(sys, gram, volume):016x}.rgfo")
        if os.path.exists(path):
            try:
                op, sys.margin = load_operator(path, gram, volume, sys)
            except BadVersionError:
                pass
    check_margin(sys, resonance_threshold)
    if op is None:
        op = assemble_restriction(sys, gram, volume)
        if path:
            save_operator(op, path, sys)
    return op
