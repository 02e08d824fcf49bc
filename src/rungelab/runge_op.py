"""Boundary-to-interior restriction operator, its weighted SVD and the
truncated approximant.

The operator maps tangential boundary data on the patch basis (one column
per selected edge dof) to the stacked (E, H) dofs restricted to the target
region.  Inner products are weighted: the boundary Gram on the data side,
diagonal volume weights on the field side.  The adjoint is realized two
ways, a dense matrix conjugation and a PDE route through one adjoint solve
with homogeneous tangential data plus a boundary flux extraction; their
agreement is a test target, not an assumption.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .analysis import NormWeights
from .errors import ConfigurationError, GeometryError, NumericError
from .solver import SystemMatrix, TangentialTrace, solve_bvp
from . import store


class RestrictionOperator:
    """Dense matrix of f -> (E_f, H_f) restricted to the region, with provenance."""

    def __init__(self, matrix, weights: NormWeights, provenance):
        self.matrix = np.ascontiguousarray(matrix, dtype=complex)
        self.weights = weights
        self.provenance = provenance
        if not np.isfinite(self.matrix).all():
            raise NumericError("restriction operator carries non-finite entries")
        self.matrix.flags.writeable = False

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, f):
        return self.matrix @ np.asarray(f, dtype=complex)


def operator_provenance(sys: SystemMatrix, weights: NormWeights):
    desc = {
        "grid": list(sys.grid.key()[1:]),
        "material": list(sys.material.key()[1:]),
        "omega": sys.omega,
        "patch": list(weights.patch.key()[1:]),
        "region": list(weights.region.key()[1:]),
        "collar": weights.collar,
        # the solve that built the columns: its tolerance and its route
        "solver_tol": sys.solver_tol,
        "direct": sys.direct,
    }
    return store.provenance_hash(desc)


def assemble_restriction(sys: SystemMatrix, weights: NormWeights, *more: NormWeights):
    """One forward solve per boundary basis vector, restricted to the region.

    Each field is restricted to the region of ``weights`` and of every
    weights in ``more``, which must share its patch, collar and selected
    dofs; returns one operator per weights, a single operator when ``more``
    is empty.  Requires every region compactly contained with a connected
    complement (the standing geometry hypotheses of the approximation
    argument).
    """
    every = (weights,) + more
    for w in every:
        region = w.region
        if not region.is_compactly_contained():
            raise GeometryError("target region must be compactly contained in the box")
        if not region.complement_connected():
            raise GeometryError("complement of the target region must be connected")
        if (w.patch.key() != weights.patch.key() or w.collar != weights.collar
                or not np.array_equal(w.v_sel, weights.v_sel)):
            raise ConfigurationError(
                "restriction operators built from shared solves need the same patch, "
                "collar and selected boundary dofs")
    patch = weights.patch
    n_v = weights.n_v
    cols = [np.empty((w.n_x, n_v), dtype=complex) for w in every]
    for i in range(n_v):
        values = np.zeros(patch.n_dofs, dtype=complex)
        values[weights.v_sel[i]] = 1.0
        fields = solve_bvp(sys, TangentialTrace(patch, values))
        for w, c in zip(every, cols):
            c[:, i] = w.restrict(fields)
    ops = tuple(RestrictionOperator(c, w, operator_provenance(sys, w))
                for w, c in zip(every, cols))
    return ops if more else ops[0]


def apply_adjoint(sys: SystemMatrix, F, weights: NormWeights):
    """Adjoint applied through the PDE: one interior solve with homogeneous
    tangential data against the volume-weighted source built from F, then the
    boundary flux on the patch dofs, then the inverse boundary Gram.

    F stacks the region-restricted (E, H) dofs, matching weights.restrict.
    """
    F = np.asarray(F, dtype=complex)
    if F.shape != (weights.n_x,):
        raise ConfigurationError(f"adjoint input length {F.shape} != {weights.n_x}")
    ne = len(weights.x_edge_idx)
    FE = F[:ne]
    FH = F[ne:]
    grid = sys.grid

    g = np.zeros(grid.n_edges, dtype=complex)
    g[weights.x_edge_idx] = weights.x_edge_w * FE
    fh = np.zeros(grid.n_faces, dtype=complex)
    fh[weights.x_face_idx] = weights.x_face_w * FH
    # conj(1/(i omega)) = i / omega
    g = g + (1j / sys.omega) * (sys.curl.T @ (sys.mu_inv_point.T @ fh))

    u = sys.solve_interior(g[sys.idx_interior])
    flux = g[sys.idx_boundary] - sys.L_BI @ u

    bpos = {int(d): i for i, d in enumerate(sys.idx_boundary)}
    take = np.array([bpos[int(d)] for d in weights.v_dofs], dtype=int)
    return weights.v_solve(flux[take])


def matrix_adjoint(op: RestrictionOperator, F):
    """Dense oracle: G_V^{-1} A^H G_X F."""
    w = op.weights
    return w.v_solve(op.matrix.conj().T @ (w.x_weights() * np.asarray(F, dtype=complex)))


class SvdBundle:
    """Weighted singular system: A phi_k = sigma_k Psi_k with
    phi^H G_V phi = I and Psi^H G_X Psi = I."""

    def __init__(self, sigma, phi, psi, weights: NormWeights, provenance):
        self.sigma = np.ascontiguousarray(sigma, dtype=float)
        self.phi = np.ascontiguousarray(phi, dtype=complex)
        self.psi = np.ascontiguousarray(psi, dtype=complex)
        self.weights = weights
        self.provenance = provenance
        if np.any(np.diff(self.sigma) > 0):
            raise NumericError("singular values must be sorted descending")
        for arr in (self.sigma, self.phi, self.psi):
            arr.flags.writeable = False

    @property
    def rank(self):
        return len(self.sigma)


def weighted_svd(op: RestrictionOperator) -> SvdBundle:
    """SVD of the Cholesky-whitened operator, mapped back to weighted bases."""
    w = op.weights
    sqrt_x = np.sqrt(w.x_weights())
    # B = L_X^H A L_V^{-H}
    rhs = sla.solve_triangular(w.chol_V, op.matrix.conj().T, lower=True).conj().T
    B = sqrt_x[:, None] * rhs
    try:
        U, S, Vh = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"whitened SVD failed: {exc}") from exc
    phi = sla.solve_triangular(w.chol_V.T, Vh.conj().T, lower=False)
    psi = U / sqrt_x[:, None]
    return SvdBundle(S, phi, psi, w, op.provenance)


def expand_target(svd: SvdBundle, W):
    """Coefficients c_k = <W, Psi_k>_X plus the out-of-span residual norm."""
    W = np.asarray(W, dtype=complex)
    w = svd.weights
    coeffs = svd.psi.conj().T @ (w.x_weights() * W)
    recon = svd.psi @ coeffs
    residual = w.x_norm(W - recon)
    return coeffs, float(residual)


class Approximant:
    """Truncated reconstruction R_alpha of a target from its expansion."""

    def __init__(self, alpha, coeffs, svd: SvdBundle, j_index=None):
        self.alpha = float(alpha)
        self.svd = svd
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.j_index = j_index
        self.kept = np.flatnonzero(svd.sigma >= self.alpha)
        kept = self.kept
        if len(kept):
            self.boundary_data = svd.phi[:, kept] @ (self.coeffs[kept] / svd.sigma[kept])
        else:
            self.boundary_data = np.zeros(svd.phi.shape[0], dtype=complex)

    @property
    def kept_count(self):
        return len(self.kept)

    def boundary_norm(self):
        return self.svd.weights.v_norm(self.boundary_data)

    def boundary_norm_bound(self):
        """Termwise bound: ||R_alpha W||_V <= (sum |c_k|^2)^{1/2} / alpha."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)) / self.alpha)

    def in_span_error(self):
        """X-norm of the dropped tail, sqrt(sum_{sigma<alpha} |c_k|^2)."""
        dropped = np.setdiff1d(np.arange(self.svd.rank), self.kept, assume_unique=True)
        return float(np.sqrt(np.sum(np.abs(self.coeffs[dropped]) ** 2)))

    def trace(self) -> TangentialTrace:
        w = self.svd.weights
        values = np.zeros(w.patch.n_dofs, dtype=complex)
        values[w.v_sel] = self.boundary_data
        return TangentialTrace(w.patch, values)


def truncate(svd: SvdBundle, coeffs, alpha, j_index=None) -> Approximant:
    """Keep modes with sigma_k >= alpha (ties included)."""
    if not (alpha > 0):
        raise ConfigurationError("alpha must be positive")
    return Approximant(alpha, coeffs, svd, j_index=j_index)


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

def save_operator(op: RestrictionOperator, path):
    store.write_envelope(path, "operator", op.provenance,
                         store.pack_complex_matrix(op.matrix))


def load_operator(path, weights: NormWeights, sys: SystemMatrix) -> RestrictionOperator:
    prov = operator_provenance(sys, weights)
    payload = store.read_envelope(path, "operator", prov)
    matrix = store.unpack_complex_matrix(payload)
    if matrix.shape != (weights.n_x, weights.n_v):
        raise ConfigurationError(
            f"cached operator shape {matrix.shape} != weights ({weights.n_x}, {weights.n_v})")
    return RestrictionOperator(matrix, weights, prov)
