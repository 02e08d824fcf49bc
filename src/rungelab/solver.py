"""Frequency-domain Maxwell solver on the staggered grid.

The first-order system is reduced to the second-order form
``curl (mu^-1 curl E) - omega^2 eps E = 0`` on edge dofs; the magnetic field
is recovered as ``H = (i omega)^-1 mu^-1 curl E`` on face dofs.  Material
tensors enter through neighbor-cell averaging onto edges and faces (diagonal
components) plus symmetric cross-component coupling blocks when a tensor has
off-diagonal entries.  The discrete curl is exact, so the divergence of the
curl cancels stencil-by-stencil.

Tangential boundary data is imposed by lifting: only interior edges are
unknowns, boundary edges move to the right-hand side.  The reduced matrix is
real symmetric; complex data is solved through its real and imaginary parts
against one factorization.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, NumericError, ResonantFrequencyError, RungelabError
from .geometry import Grid, Region, BoundaryPatch, adjacent_axes
from .materials import MaterialField

# 1D segment mass matrix of the linear shape functions on [0, 1].
_M1D = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])

# Interior dimension above which systems are solved by MINRES instead of a
# SuperLU factorization.  A single-RHS level already costs less on MINRES at
# 12^3, but studies with more than a few right-hand sides do not, so the
# limit keeps 12^3 (4,356 interior edges: the runge and three-ball studies)
# direct and sends 16^3 (10,800) and larger to MINRES.
DIRECT_LIMIT = 8_000
SOLVER_TOL = 1e-10
KRYLOV_MAXITER = 10_000
KRYLOV_RESTARTS = 5
RESONANCE_THRESHOLD = 1e-6
# Relative MINRES tolerance of one inverse-iteration step of the resonance
# guard on the Krylov path: the margin is only compared with a threshold.
GUARD_TOL = 1e-6


def curl_matrix(grid: Grid) -> sp.csr_matrix:
    """Exact discrete curl mapping edge dofs to face dofs (entries +-1/h)."""
    h = grid.h
    rows, cols, vals = [], [], []

    def add(face_axis, shape, terms):
        idx = np.indices(shape)
        r = grid.face_index(face_axis, idx[0], idx[1], idx[2]).ravel()
        for (edge_axis, di, dj, dk, sign) in terms:
            c = grid.edge_index(edge_axis, idx[0] + di, idx[1] + dj, idx[2] + dk).ravel()
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, sign / h))

    # (curl E)_x = dEz/dy - dEy/dz, and cyclic.
    add(0, grid.face_shapes[0], [(2, 0, 1, 0, 1.0), (2, 0, 0, 0, -1.0),
                                 (1, 0, 0, 1, -1.0), (1, 0, 0, 0, 1.0)])
    add(1, grid.face_shapes[1], [(0, 0, 0, 1, 1.0), (0, 0, 0, 0, -1.0),
                                 (2, 1, 0, 0, -1.0), (2, 0, 0, 0, 1.0)])
    add(2, grid.face_shapes[2], [(1, 1, 0, 0, 1.0), (1, 0, 0, 0, -1.0),
                                 (0, 0, 1, 0, -1.0), (0, 0, 0, 0, 1.0)])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.n_faces, grid.n_edges))


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Discrete divergence mapping face dofs to cell values (entries +-1/h)."""
    h = grid.h
    nx, ny, nz = grid.n
    idx = np.indices((nx, ny, nz))
    r = _cell_ravel(grid, idx[0], idx[1], idx[2]).ravel()
    rows, cols, vals = [], [], []
    for axis in range(3):
        for d, sign in ((1, 1.0), (0, -1.0)):
            shift = [idx[0], idx[1], idx[2]]
            shift[axis] = shift[axis] + d
            c = grid.face_index(axis, shift[0], shift[1], shift[2]).ravel()
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, sign / h))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.n_cells, grid.n_faces))


def _cell_ravel(grid, i, j, k):
    nx, ny, nz = grid.n
    return (i * ny + j) * nz + k


def mimetic_defect(grid: Grid) -> sp.csr_matrix:
    """div o curl as an assembled sparse product; exact stencil cancellation
    leaves no nonzero entries."""
    d = divergence_matrix(grid) @ curl_matrix(grid)
    d.eliminate_zeros()
    return d


def _cell_offsets(family, axis):
    """Offsets, within a cell, of its dofs of direction ``axis``: the 4
    parallel edges or the 2 opposite faces, in ``itertools.product`` order."""
    across = adjacent_axes(family, axis)
    out = []
    for offsets in itertools.product((0, 1), repeat=len(across)):
        o = [0, 0, 0]
        for d, v in zip(across, offsets):
            o[d] = v
        out.append(o)
    return out


def _cross_pairs(grid: Grid, tensors, family, a):
    """Cell-local pairs coupling the a-dofs of ``family`` to the b-dofs.

    For every b != a whose tensor entry (a, b) is nonzero somewhere, and for
    every a-dof and then every b-dof of a cell, yields
    ``(b, offset_a, offset_b, rows, cols, coeff)``: the cell offsets of the
    two dofs, their flat indices over all cells and the cellwise entry.
    """
    cells = np.indices(grid.n)
    index = grid.edge_index if family == "edge" else grid.face_index
    for b in range(3):
        coeff = tensors[..., a, b]
        if b == a or not coeff.any():
            continue
        for oa in _cell_offsets(family, a):
            ga = index(a, *(cells[d] + oa[d] for d in range(3))).ravel()
            for ob in _cell_offsets(family, b):
                gb = index(b, *(cells[d] + ob[d] for d in range(3))).ravel()
                yield b, oa, ob, ga, gb, coeff.ravel()


def _material_matrix(grid: Grid, tensors, family) -> sp.csr_matrix:
    """Lumped diagonal plus the symmetric cross-family blocks of one dof kind.

    The diagonal is h^3/4 (edges) or h^3/2 (faces) times the sum of the
    adjacent cells' diagonal tensor entries.

    The cross blocks are cell-local exact integrals of the shape functions:
    an a-edge and a b-edge couple with eps_ab * h^3/4 * m1d[o_c, o'_c], o_c
    their offsets along the shared transverse axis c; faces couple with
    eps_ab * h^3/4.
    """
    h3 = grid.h ** 3
    n = grid.n_edges if family == "edge" else grid.n_faces
    cells_per_dof = 4.0 if family == "edge" else 2.0
    diagonal = np.einsum("...aa->...a", tensors)
    m = sp.diags((h3 / cells_per_dof) * grid.adjacent_cell_sums(diagonal, family))
    rows, cols, vals = [], [], []
    for a in range(3):
        for b, oa, ob, ga, gb, coeff in _cross_pairs(grid, tensors, family, a):
            c = 3 - a - b
            w = (h3 / 4.0) * (_M1D[oa[c], ob[c]] if family == "edge" else 1.0)
            rows.append(ga)
            cols.append(gb)
            vals.append(w * coeff)
    if rows:
        m = m + sp.csr_matrix((np.concatenate(vals),
                               (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return m.tocsr()


def edge_material_matrix(grid: Grid, tensors) -> sp.csr_matrix:
    return _material_matrix(grid, tensors, "edge")


def face_material_matrix(grid: Grid, tensors) -> sp.csr_matrix:
    return _material_matrix(grid, tensors, "face")


def face_pointwise_operator(grid: Grid, tensors) -> sp.csr_matrix:
    """Pointwise tensor application on face vectors.

    Diagonal components average the adjacent cells of each face; off-diagonal
    ones additionally average the partner-component faces of those cells.
    Identity tensors give the identity matrix exactly.
    """
    n_adj = grid.adjacent_cell_sums(np.ones(grid.n + (1,)), "face")
    diag = grid.adjacent_cell_sums(np.einsum("...aa->...a", tensors), "face") / n_adj
    rows, cols, vals = [], [], []
    for a in range(3):
        own = np.arange(grid.face_offsets[a], grid.face_offsets[a] + grid.face_counts[a])
        rows.append(own)
        cols.append(own)
        vals.append(diag[own])
        for _, _, _, ga, gb, coeff in _cross_pairs(grid, tensors, "face", a):
            rows.append(ga)
            cols.append(gb)
            vals.append(coeff / (2.0 * n_adj[ga]))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.n_faces, grid.n_faces))


class TangentialTrace:
    """Complex tangential data on the edge dofs of a boundary patch."""

    def __init__(self, patch: BoundaryPatch, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (patch.n_dofs,):
            raise ConfigurationError(
                f"trace length {values.shape} != patch dof count {patch.n_dofs}")
        if _not_finite(values):
            raise ConfigurationError("trace carries non-finite values")
        self.patch = patch
        self.values = values
        self.values.flags.writeable = False

    @classmethod
    def zeros(cls, patch):
        return cls(patch, np.zeros(patch.n_dofs, dtype=complex))


def _not_finite(a):
    return not np.isfinite(a).all()


class SourceTerm:
    """Volume source: F on edge dofs and Ftilde on face dofs, region-supported."""

    def __init__(self, grid: Grid, F=None, Ftilde=None, support: Region | None = None):
        self.grid = grid
        self.F = np.zeros(grid.n_edges, dtype=complex) if F is None else np.asarray(F, dtype=complex)
        self.Ftilde = np.zeros(grid.n_faces, dtype=complex) if Ftilde is None \
            else np.asarray(Ftilde, dtype=complex)
        if self.F.shape != (grid.n_edges,) or self.Ftilde.shape != (grid.n_faces,):
            raise ConfigurationError("source vectors must match the grid dof counts")
        if _not_finite(self.F) or _not_finite(self.Ftilde):
            raise ConfigurationError("source carries non-finite values")
        if support is not None:
            we = grid.edge_cell_adjacency_weights(support.mask)
            wf = grid.face_cell_adjacency_weights(support.mask)
            if np.abs(self.F[we == 0]).max(initial=0) > 0 or \
                    np.abs(self.Ftilde[wf == 0]).max(initial=0) > 0:
                raise ConfigurationError("source support leaks outside its declared region")
        self.support = support


class FieldPair:
    """Complex (E, H) sampled on the staggered dofs of one grid."""

    def __init__(self, grid: Grid, E, H):
        E = np.asarray(E, dtype=complex)
        H = np.asarray(H, dtype=complex)
        if E.shape != (grid.n_edges,) or H.shape != (grid.n_faces,):
            raise ConfigurationError("field lengths must match the grid dof counts")
        if _not_finite(E) or _not_finite(H):
            raise ConfigurationError("fields carry non-finite values")
        self.grid = grid
        self.E = E
        self.H = H

    def __mul__(self, c):
        return FieldPair(self.grid, c * self.E, c * self.H)

    __rmul__ = __mul__

    def __add__(self, other):
        return FieldPair(self.grid, self.E + other.E, self.H + other.H)

    def __sub__(self, other):
        return FieldPair(self.grid, self.E - other.E, self.H - other.H)


class SystemMatrix:
    """Assembled curl-curl operator with its interior factorization.

    Systems of interior dimension up to ``direct_limit`` are solved against a
    SuperLU factorization, larger ones by Jacobi-preconditioned MINRES.
    Immutable after assembly apart from the lazily built factorization, the
    lazily built Krylov preconditioner and the cached resonance margin.
    """

    def __init__(self, grid, material, omega, L, curl, mu_inv_point, solver_tol,
                 direct_limit):
        self.grid = grid
        self.material = material
        self.omega = float(omega)
        self.L = L
        self.curl = curl
        self.mu_inv_point = mu_inv_point
        self.solver_tol = solver_tol
        self.idx_interior = grid.interior_edge_indices()
        self.idx_boundary = grid.boundary_edge_indices()
        self.L_II = L[self.idx_interior][:, self.idx_interior].tocsc()
        self.L_IB = L[self.idx_interior][:, self.idx_boundary].tocsr()
        self.L_BI = L[self.idx_boundary][:, self.idx_interior].tocsr()
        self.norm_estimate = float(np.abs(self.L_II).sum(axis=1).max())
        self.dimension = self.L_II.shape[0]
        self.direct = self.dimension <= direct_limit
        self._lu = None
        self._jacobi = None
        self.margin = None

    def _preconditioner(self):
        if self._jacobi is None:
            diag = np.abs(self.L_II.diagonal())
            diag[diag == 0] = 1.0
            self._jacobi = sp.diags(1.0 / diag)
        return self._jacobi

    def _factorize(self):
        if self._lu is None:
            self._lu = spla.splu(self.L_II, permc_spec="MMD_AT_PLUS_A",
                                 options=dict(SymmetricMode=True))
        return self._lu

    def solve_interior(self, rhs):
        """Solve L_II x = rhs for an (n,) vector or an (n, k) block.

        Complex right-hand sides are solved through their real and imaginary
        parts against the real factorization (or the real Krylov solver).
        """
        if not self.direct:
            return self._solve_krylov(rhs)
        lu = self._factorize()
        if np.iscomplexobj(rhs):
            return lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
        return lu.solve(rhs)

    def _solve_krylov(self, b):
        if np.iscomplexobj(b):
            return self._solve_krylov(b.real) + 1j * self._solve_krylov(b.imag)
        if b.ndim == 2:
            out = np.empty(b.shape)
            for j in range(b.shape[1]):
                out[:, j] = self._solve_krylov(b[:, j])
            return out
        if np.abs(b).max(initial=0) == 0:
            return np.zeros_like(b)
        # minres stops on its preconditioned residual estimate relative to
        # |L_II| |x|, not |b|; accept only the true relative residual and
        # solve for the correction again until it is met
        nb = np.linalg.norm(b)
        x = np.zeros_like(b)
        r = b
        history = [1.0]
        for _ in range(KRYLOV_RESTARTS):
            if history[-1] <= self.solver_tol:
                return x
            dx, info = self._minres(r, self.solver_tol)
            if info != 0:
                break
            x = x + dx
            r = b - self.L_II @ x
            history.append(float(np.linalg.norm(r) / nb))
        if history[-1] > 10 * self.solver_tol:
            raise NumericError(
                f"Krylov solver stalled at relative residual {history[-1]:.3e}",
                history=history)
        return x

    def _minres(self, b, rtol, x0=None):
        """One preconditioned MINRES run on L_II x = b; returns (x, info)."""
        return spla.minres(self.L_II, b, x0=x0, rtol=rtol, maxiter=KRYLOV_MAXITER,
                           M=self._preconditioner())

    def key(self):
        return ("system", self.grid.key(), self.material.key(), self.omega)


def assemble(grid: Grid, mat: MaterialField, omega, *,
             resonance_threshold=RESONANCE_THRESHOLD, check_resonance=True,
             solver_tol=SOLVER_TOL, direct_limit=DIRECT_LIMIT) -> SystemMatrix:
    """Assemble curl(mu^-1 curl .) - omega^2 eps on interior edges.

    Raises ResonantFrequencyError when the relative smallest-singular-value
    estimate falls below ``resonance_threshold``; the error carries a detuned
    frequency suggestion probed at +-7 percent.
    """
    if not (omega > 0):
        raise ConfigurationError("omega must be positive")
    C = curl_matrix(grid)
    Mf = face_material_matrix(grid, mat.mu_inv())
    Me = edge_material_matrix(grid, mat.eps)
    K = (C.T @ Mf @ C).tocsr()
    L = (K - omega ** 2 * Me).tocsr()
    # exact symmetry of the assembled operator
    L = ((L + L.T) * 0.5).tocsr()
    Pmu = face_pointwise_operator(grid, mat.mu_inv())
    sys = SystemMatrix(grid, mat, omega, L, C, Pmu, solver_tol, direct_limit)
    if check_resonance:
        margin = resonance_guard(sys)
        if margin < resonance_threshold:
            suggestion = _suggest_detuned(grid, mat, omega, solver_tol, direct_limit)
            raise ResonantFrequencyError(
                f"omega={omega:g} sits near a resonance "
                f"(relative margin {margin:.3e} < {resonance_threshold:g})",
                margin=margin, suggested_omega=suggestion)
    return sys


def _suggest_detuned(grid, mat, omega, solver_tol, direct_limit):
    best = None
    for factor in (0.93, 1.07):
        cand = omega * factor
        try:
            s = assemble(grid, mat, cand, check_resonance=False,
                         solver_tol=solver_tol, direct_limit=direct_limit)
            m = resonance_guard(s)
        except (RungelabError, RuntimeError):
            # RuntimeError: splu on an exactly singular detuned matrix
            continue
        if best is None or m > best[1]:
            best = (cand, m)
    return None if best is None else best[0]


def resonance_guard(sys: SystemMatrix, iterations=12, seed=0):
    """Relative smallest-singular-value estimate via inverse power iterations.

    On the Krylov path each step is one MINRES run at ``GUARD_TOL``,
    warm-started from the Rayleigh-quotient guess v / (v^T L v): once v is
    near the smallest eigenvector the start is nearly exact in that
    direction, so the loose tolerance leaves the margin within about 1e-6
    relative of the direct one.
    """
    if sys.margin is not None:
        return sys.margin
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys.dimension)
    v /= np.linalg.norm(v)
    sigma_min = None
    for _ in range(iterations):
        w = sys.solve_interior(v) if sys.direct else _guard_step(sys, v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        sigma_min = 1.0 / nw
        v = w / nw
    sys.margin = float(sigma_min / sys.norm_estimate)
    return sys.margin


def _guard_step(sys: SystemMatrix, v):
    """Loose, warm-started MINRES solve of L_II w = v for a unit vector v."""
    w, info = sys._minres(v, GUARD_TOL, x0=v / (v @ (sys.L_II @ v)))
    if info != 0:
        rel = float(np.linalg.norm(sys.L_II @ w - v))
        raise NumericError(f"resonance guard step stalled at relative residual {rel:.3e}",
                           history=[rel])
    return w


def _lift(sys: SystemMatrix, eB, rhs) -> FieldPair:
    """Fields with boundary edges ``eB`` and interior edges solving
    L_II eI = rhs, with H = (i omega)^-1 mu^-1 curl E.

    ``rhs`` already carries the boundary data (-L_IB eB) or the volume
    source.  Raises NumericError when the relative residual of the interior
    solve exceeds 10 * solver_tol.
    """
    grid = sys.grid
    eI = sys.solve_interior(rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0:
        rel = np.linalg.norm(sys.L_II @ eI - rhs) / scale
        if rel > 10 * sys.solver_tol:
            raise NumericError(f"interior solve at relative residual {rel:.3e}",
                               history=[rel])
    E = np.zeros(grid.n_edges, dtype=complex)
    E[sys.idx_boundary] = eB
    E[sys.idx_interior] = eI
    H = sys.mu_inv_point @ (sys.curl @ E) / (1j * sys.omega)
    return FieldPair(grid, E, H)


def solve_bvp(sys: SystemMatrix, trace: TangentialTrace) -> FieldPair:
    """Solve the interior problem with lifted tangential boundary data."""
    eB = np.zeros(sys.grid.n_edges, dtype=complex)
    eB[trace.patch.edge_dofs] = trace.values
    eB = eB[sys.idx_boundary]
    return _lift(sys, eB, -(sys.L_IB @ eB))


def weak_rhs(sys: SystemMatrix, src: SourceTerm):
    """Volume-weighted right-hand side of F + curl Ftilde."""
    grid = sys.grid
    ones = np.ones(grid.n, dtype=bool)
    we = grid.edge_cell_adjacency_weights(ones) * grid.h ** 3
    wf = grid.face_cell_adjacency_weights(ones) * grid.h ** 3
    return we * src.F + sys.curl.T @ (wf * src.Ftilde)


def solve_source(sys: SystemMatrix, src: SourceTerm) -> FieldPair:
    """Solve the source problem with homogeneous tangential boundary data."""
    return _lift(sys, 0.0, weak_rhs(sys, src)[sys.idx_interior])


def derive_H_from_E(E, mat: MaterialField, omega) -> np.ndarray:
    """H = (i omega)^-1 mu^-1 curl E on face dofs."""
    grid = mat.grid
    C = curl_matrix(grid)
    P = face_pointwise_operator(grid, mat.mu_inv())
    return P @ (C @ np.asarray(E, dtype=complex)) / (1j * omega)


def residual(fields: FieldPair, sys: SystemMatrix, src: SourceTerm | None = None):
    """Relative first-order system residual of a field pair.

    Faraday channel: mu^-1 curl E - i omega H on faces.  Ampere channel: the
    volume-normalized defect of the assembled second-order operator on
    interior edges (zero up to solver tolerance for solver outputs, O(h^2)
    for sampled analytic solutions).
    """
    grid = sys.grid
    ones = np.ones(grid.n, dtype=bool)
    we = grid.edge_cell_adjacency_weights(ones) * grid.h ** 3
    wf = grid.face_cell_adjacency_weights(ones) * grid.h ** 3

    r_far = sys.mu_inv_point @ (sys.curl @ fields.E) - 1j * sys.omega * fields.H
    rhs = weak_rhs(sys, src) if src is not None else np.zeros(grid.n_edges, dtype=complex)
    defect = (sys.L @ fields.E - rhs)[sys.idx_interior]
    r_amp = defect / we[sys.idx_interior]

    num = np.sqrt(float(np.sum(wf * np.abs(r_far) ** 2))
                  + float(np.sum(we[sys.idx_interior] * np.abs(r_amp) ** 2)))
    scale = np.sqrt(float(np.sum(we * np.abs(fields.E) ** 2))
                    + float(np.sum(wf * np.abs(fields.H) ** 2)))
    if src is not None:
        scale += np.sqrt(float(np.sum(we * np.abs(src.F) ** 2))
                         + float(np.sum(wf * np.abs(src.Ftilde) ** 2)))
    if scale == 0:
        return float(num)
    return float(num / scale)
