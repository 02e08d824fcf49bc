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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, NumericError, ResonantFrequencyError, RungelabError
from .geometry import Grid, Region, BoundaryPatch
from .materials import MaterialField, ellipticity_check

# 1D segment mass matrix of the linear shape functions on [0, 1].
_M1D = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])

DIRECT_LIMIT = 200_000
SOLVER_TOL = 1e-10
KRYLOV_MAXITER = 10_000
KRYLOV_RESTARTS = 5
RESONANCE_THRESHOLD = 1e-6


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


def _edge_lumped_weights(grid: Grid, coeff_aa):
    """Diagonal edge weights h^3/4 * sum of coeff_aa over cells adjacent to the edge.

    coeff_aa: (nx, ny, nz, 3) per-cell diagonal tensor entries.
    """
    h3 = grid.h ** 3
    out = np.zeros(grid.n_edges)
    for axis in range(3):
        t1, t2 = (axis + 1) % 3, (axis + 2) % 3
        field = coeff_aa[..., axis]
        padded_shape = [grid.n[0], grid.n[1], grid.n[2]]
        padded_shape[t1] += 2
        padded_shape[t2] += 2
        padded = np.zeros(padded_shape)
        sl = [slice(None)] * 3
        sl[t1] = slice(1, -1)
        sl[t2] = slice(1, -1)
        padded[tuple(sl)] = field
        shape = grid.edge_shapes[axis]
        acc = np.zeros(shape)
        for d1 in (0, 1):
            for d2 in (0, 1):
                take = [slice(None)] * 3
                take[t1] = slice(d1, d1 + shape[t1])
                take[t2] = slice(d2, d2 + shape[t2])
                acc += padded[tuple(take)]
        lo = grid.edge_offsets[axis]
        out[lo:lo + grid.edge_counts[axis]] = (h3 / 4.0) * acc.reshape(-1)
    return out


def _face_lumped_weights(grid: Grid, coeff_aa):
    h3 = grid.h ** 3
    out = np.zeros(grid.n_faces)
    for axis in range(3):
        field = coeff_aa[..., axis]
        padded_shape = list(grid.n)
        padded_shape[axis] += 2
        padded = np.zeros(padded_shape)
        sl = [slice(None)] * 3
        sl[axis] = slice(1, -1)
        padded[tuple(sl)] = field
        shape = grid.face_shapes[axis]
        acc = np.zeros(shape)
        for d in (0, 1):
            take = [slice(None)] * 3
            take[axis] = slice(d, d + shape[axis])
            acc += padded[tuple(take)]
        lo = grid.face_offsets[axis]
        out[lo:lo + grid.face_counts[axis]] = (h3 / 2.0) * acc.reshape(-1)
    return out


def _cell_edge_dofs(grid: Grid, axis, s, t, I, J, K):
    """Edge dof of family ``axis`` with transverse offsets (s, t) in cell (I, J, K)."""
    t1, t2 = (axis + 1) % 3, (axis + 2) % 3
    d = [I, J, K]
    d = [d[0].copy(), d[1].copy(), d[2].copy()]
    d[t1] = d[t1] + s
    d[t2] = d[t2] + t
    return grid.edge_index(axis, d[0], d[1], d[2])


def _edge_cross_blocks(grid: Grid, tensors):
    """Symmetric off-diagonal tensor coupling between edge families.

    Cell-local exact integrals of the trilinear edge shape functions:
    coupling between family a (offsets s, t) and family b (offsets s', t')
    equals eps_ab * h^3/4 * m1d[o_c, o'_c] with o_c the offsets along the
    shared transverse axis c.
    """
    nx, ny, nz = grid.n
    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    h3 = grid.h ** 3
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            c_axis = 3 - a - b
            coeff = tensors[..., a, b]
            if not coeff.any():
                continue
            for s in (0, 1):
                for t in (0, 1):
                    ga = _cell_edge_dofs(grid, a, s, t, I, J, K).ravel()
                    o_a = s if (a + 1) % 3 == c_axis else t
                    for s2 in (0, 1):
                        for t2 in (0, 1):
                            gb = _cell_edge_dofs(grid, b, s2, t2, I, J, K).ravel()
                            o_b = s2 if (b + 1) % 3 == c_axis else t2
                            w = (h3 / 4.0) * _M1D[o_a, o_b]
                            rows.append(ga)
                            cols.append(gb)
                            vals.append((w * coeff).ravel())
    if not rows:
        return sp.csr_matrix((grid.n_edges, grid.n_edges))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.n_edges, grid.n_edges))


def _face_cross_blocks(grid: Grid, tensors):
    """Symmetric off-diagonal coupling between face families (weight h^3/4)."""
    nx, ny, nz = grid.n
    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    h3 = grid.h ** 3
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            coeff = tensors[..., a, b]
            if not coeff.any():
                continue
            for s in (0, 1):
                d = [I.copy(), J.copy(), K.copy()]
                d[a] = d[a] + s
                ga = grid.face_index(a, d[0], d[1], d[2]).ravel()
                for s2 in (0, 1):
                    d2 = [I.copy(), J.copy(), K.copy()]
                    d2[b] = d2[b] + s2
                    gb = grid.face_index(b, d2[0], d2[1], d2[2]).ravel()
                    vals.append((h3 / 4.0) * coeff.ravel())
                    rows.append(ga)
                    cols.append(gb)
    if not rows:
        return sp.csr_matrix((grid.n_faces, grid.n_faces))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.n_faces, grid.n_faces))


def edge_material_matrix(grid: Grid, tensors) -> sp.csr_matrix:
    diag_aa = np.stack([tensors[..., a, a] for a in range(3)], axis=-1)
    m = sp.diags(_edge_lumped_weights(grid, diag_aa))
    cross = _edge_cross_blocks(grid, tensors)
    if cross.nnz:
        m = m + cross
    return m.tocsr()


def face_material_matrix(grid: Grid, tensors) -> sp.csr_matrix:
    diag_aa = np.stack([tensors[..., a, a] for a in range(3)], axis=-1)
    m = sp.diags(_face_lumped_weights(grid, diag_aa))
    cross = _face_cross_blocks(grid, tensors)
    if cross.nnz:
        m = m + cross
    return m.tocsr()


def face_pointwise_operator(grid: Grid, tensors) -> sp.csr_matrix:
    """Pointwise tensor application on face vectors.

    Diagonal components average the adjacent cells of each face; off-diagonal
    ones additionally average the partner-component faces of those cells.
    Identity tensors give the identity matrix exactly.
    """
    nx, ny, nz = grid.n
    rows, cols, vals = [], [], []
    for a in range(3):
        shape = grid.face_shapes[a]
        idx = np.indices(shape)
        g = grid.face_index(a, idx[0], idx[1], idx[2]).ravel()
        # adjacent cell count along own axis
        own = idx[a]
        n_adj = np.where((own == 0) | (own == grid.n[a]), 1.0, 2.0).ravel()
        coeff = tensors[..., a, a]
        padded_shape = list(grid.n)
        padded_shape[a] += 2
        padded = np.zeros(padded_shape)
        sl = [slice(None)] * 3
        sl[a] = slice(1, -1)
        padded[tuple(sl)] = coeff
        acc = np.zeros(shape)
        for d in (0, 1):
            take = [slice(None)] * 3
            take[a] = slice(d, d + shape[a])
            acc += padded[tuple(take)]
        rows.append(g)
        cols.append(g)
        vals.append(acc.ravel() / n_adj)
        for b in range(3):
            if b == a or not tensors[..., a, b].any():
                continue
            # cells adjacent to the a-face, each contributing its two b-faces
            cI, cJ, cK = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
            coeff_ab = tensors[..., a, b]
            for da in (0, 1):
                d = [cI.copy(), cJ.copy(), cK.copy()]
                d[a] = d[a] + da
                gf = grid.face_index(a, d[0], d[1], d[2]).ravel()
                denom = np.where((d[a] == 0) | (d[a] == grid.n[a]), 1.0, 2.0).ravel()
                for db in (0, 1):
                    d2 = [cI.copy(), cJ.copy(), cK.copy()]
                    d2[b] = d2[b] + db
                    gb = grid.face_index(b, d2[0], d2[1], d2[2]).ravel()
                    rows.append(gf)
                    cols.append(gb)
                    vals.append(coeff_ab.ravel() / (2.0 * denom))
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.n_faces, grid.n_faces))
    return mat


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

    Immutable after assembly apart from the lazily built factorization and
    the cached resonance margin.
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
        self._direct = self.dimension <= direct_limit
        self._lu = None
        self.margin = None

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
        if not self._direct:
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
        diag = np.abs(self.L_II.diagonal())
        diag[diag == 0] = 1.0
        M = sp.diags(1.0 / diag)
        hist = []

        def cb(xk):
            hist.append(float(np.linalg.norm(self.L_II @ xk - b)))

        # minres stops on its preconditioned residual estimate relative to
        # |L_II| |x|, not |b|; accept only the true relative residual and
        # solve for the correction again until it is met
        x = np.zeros_like(b)
        for _ in range(KRYLOV_RESTARTS):
            r = b - self.L_II @ x
            res = np.linalg.norm(r) / np.linalg.norm(b)
            if res <= self.solver_tol:
                return x
            dx, info = spla.minres(self.L_II, r, rtol=self.solver_tol,
                                   maxiter=KRYLOV_MAXITER, M=M, callback=cb)
            if info != 0:
                break
            x = x + dx
        res = np.linalg.norm(self.L_II @ x - b) / np.linalg.norm(b)
        if res > 10 * self.solver_tol:
            raise NumericError(
                f"Krylov solver stalled at relative residual {res:.3e}", history=hist)
        return x

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
    ok, worst = ellipticity_check(mat, mat.c)
    if not ok:
        raise ConfigurationError(f"material fails its own ellipticity bound: {worst}")
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
    """Relative smallest-singular-value estimate via inverse power iterations."""
    if sys.margin is not None:
        return sys.margin
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys.dimension)
    v /= np.linalg.norm(v)
    sigma_min = None
    for _ in range(iterations):
        w = sys.solve_interior(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        sigma_min = 1.0 / nw
        v = w / nw
    sys.margin = float(sigma_min / sys.norm_estimate)
    return sys.margin


def solve_bvp(sys: SystemMatrix, trace: TangentialTrace) -> FieldPair:
    """Solve the interior problem with lifted tangential boundary data."""
    grid = sys.grid
    eB = np.zeros(grid.n_edges, dtype=complex)
    eB[trace.patch.edge_dofs] = trace.values
    eB = eB[sys.idx_boundary]
    rhs = -(sys.L_IB @ eB)
    eI = sys.solve_interior(rhs)
    E = np.zeros(grid.n_edges, dtype=complex)
    E[sys.idx_boundary] = eB
    E[sys.idx_interior] = eI
    scale = np.linalg.norm(rhs)
    if scale > 0:
        rel = np.linalg.norm(sys.L_II @ eI - rhs) / scale
        if rel > 10 * sys.solver_tol:
            raise NumericError(f"boundary-value solve at relative residual {rel:.3e}")
    H = _derive_H(sys, E)
    return FieldPair(grid, E, H)


def weak_rhs(sys: SystemMatrix, src: SourceTerm):
    """Volume-weighted right-hand side of F + curl Ftilde."""
    grid = sys.grid
    ones = np.ones(grid.n, dtype=bool)
    we = grid.edge_cell_adjacency_weights(ones) * grid.h ** 3
    wf = grid.face_cell_adjacency_weights(ones) * grid.h ** 3
    return we * src.F + sys.curl.T @ (wf * src.Ftilde)


def solve_source(sys: SystemMatrix, src: SourceTerm) -> FieldPair:
    """Solve the source problem with homogeneous tangential boundary data."""
    rhs = weak_rhs(sys, src)[sys.idx_interior]
    eI = sys.solve_interior(rhs)
    E = np.zeros(sys.grid.n_edges, dtype=complex)
    E[sys.idx_interior] = eI
    scale = np.linalg.norm(rhs)
    if scale > 0:
        rel = np.linalg.norm(sys.L_II @ eI - rhs) / scale
        if rel > 10 * sys.solver_tol:
            raise NumericError(f"source solve at relative residual {rel:.3e}")
    return FieldPair(sys.grid, E, _derive_H(sys, E))


def _derive_H(sys: SystemMatrix, E):
    return sys.mu_inv_point @ (sys.curl @ E) / (1j * sys.omega)


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
