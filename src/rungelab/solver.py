"""Frequency-domain Maxwell solver on the staggered grid.

The first-order system is reduced to the second-order form
``curl (mu^-1 curl E) - omega^2 eps E = 0`` on edge dofs; the magnetic field
is recovered as ``H = (i omega)^-1 mu^-1 curl E`` on face dofs.  Material
tensors enter through neighbor-cell averaging onto edges and faces (diagonal
components) plus symmetric cross-component coupling blocks when a tensor has
off-diagonal entries; pointwise mu^-1 is the face mass matrix per face volume.
The discrete curl is exact, so the divergence of the curl cancels
stencil-by-stencil.

Tangential boundary data is imposed by lifting: only interior edges are
unknowns, boundary edges move to the right-hand side.  The reduced matrix is
real symmetric; complex data is solved as one real block of its real and
imaginary parts.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConfigurationError, LowFrequencyError, NumericError,
                     ResonantFrequencyError, RungelabError)
from .geometry import Grid, Region, BoundaryPatch, cell_offsets
from .materials import MaterialField

# 1D segment mass matrix of the linear shape functions on [0, 1].
_M1D = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])

# Interior dimension above which systems go to the Krylov path instead of a
# SuperLU factorization.  A constant scalar medium is solved there by one
# transform, cheaper than the factorization for any number of right-hand
# sides, but in other media MINRES runs and the factorization pays for itself
# after a few of them.  So the limit keeps 12^3 (4,356 interior edges: the
# many-RHS runge and three-ball studies) direct and sends 15^3 (8,820) and
# larger to the Krylov path.  Below it the limit routes real vectors and
# non-constant media only: a block or complex right-hand side in a constant
# scalar medium takes the transform on either path.  Verify, one right-hand
# side per system, defaults to 0 (``experiments.normalize_config``).
DIRECT_LIMIT = 8_000
SOLVER_TOL = 1e-10
KRYLOV_MAXITER = 10_000
KRYLOV_RESTARTS = 5
RESONANCE_THRESHOLD = 1e-6
# Relative residual tolerance of the MINRES run of one inverse-iteration step
# of the resonance guard on the Krylov path (media that are not constant and
# scalar): the margin is only compared with a threshold.
GUARD_TOL = 1e-6
# Inverse power iterations of the resonance guard and its start vector's seed.
GUARD_ITERATIONS = 12
GUARD_SEED = 0


def curl_matrix(grid: Grid) -> sp.csr_matrix:
    """Exact discrete curl mapping edge dofs to face dofs (entries +-1/h).

    Every face row holds its four edges; each family's terms are listed in
    increasing edge index, so the CSR arrays are written directly, sorted.
    """
    h = grid.h
    cols, vals = [], []

    def add(face_axis, terms):
        idx = np.indices(grid.face_shapes[face_axis])
        cols.append(np.stack([grid.edge_index(edge_axis, idx[0] + di, idx[1] + dj, idx[2] + dk)
                              for (edge_axis, di, dj, dk, _) in terms], axis=-1).ravel())
        vals.append(np.tile([sign / h for *_, sign in terms], grid.face_counts[face_axis]))

    # (curl E)_x = dEz/dy - dEy/dz, and cyclic.
    add(0, [(1, 0, 0, 0, 1.0), (1, 0, 0, 1, -1.0), (2, 0, 0, 0, -1.0), (2, 0, 1, 0, 1.0)])
    add(1, [(0, 0, 0, 0, -1.0), (0, 0, 0, 1, 1.0), (2, 0, 0, 0, 1.0), (2, 1, 0, 0, -1.0)])
    add(2, [(0, 0, 0, 0, 1.0), (0, 0, 1, 0, -1.0), (1, 0, 0, 0, -1.0), (1, 1, 0, 0, 1.0)])
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols),
                          np.arange(0, 4 * grid.n_faces + 1, 4)),
                         shape=(grid.n_faces, grid.n_edges))


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Discrete divergence mapping face dofs to cell values (entries +-1/h)."""
    h = grid.h
    idx = np.indices(grid.n)
    r = np.arange(grid.n_cells)    # C-order cell numbering of idx
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


def mimetic_defect(grid: Grid) -> sp.csr_matrix:
    """div o curl as an assembled sparse product; exact stencil cancellation
    leaves no nonzero entries."""
    d = divergence_matrix(grid) @ curl_matrix(grid)
    d.eliminate_zeros()
    return d


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
        for oa in cell_offsets(family, a):
            ga = index(a, *(cells[d] + oa[d] for d in range(3))).ravel()
            for ob in cell_offsets(family, b):
                gb = index(b, *(cells[d] + ob[d] for d in range(3))).ravel()
                yield b, oa, ob, ga, gb, coeff.ravel()


def material_matrix(grid: Grid, tensors, family) -> sp.csr_matrix:
    """Mass matrix of a tensor field on the edge or face dofs: a lumped
    diagonal plus the symmetric cross-component blocks.

    The diagonal is ``Grid.dof_volumes`` of the tensor diagonal: h^3 times
    the mean of the adjacent cells' diagonal entries.

    The cross blocks are cell-local exact integrals of the shape functions:
    an a-edge and a b-edge couple with eps_ab * h^3/4 * m1d[o_c, o'_c], o_c
    their offsets along the shared transverse axis c; faces couple with
    eps_ab * h^3/4.
    """
    h3 = grid.h ** 3
    n = grid.n_edges if family == "edge" else grid.n_faces
    m = sp.diags(grid.dof_volumes(family, np.einsum("...aa->...a", tensors)))
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


def _pointwise(grid: Grid, Mf) -> sp.csr_matrix:
    """Pointwise tensor application on face vectors: the face mass matrix
    with each row divided by its face volume.

    Diagonal entries are the mean of the adjacent cells' tensor entries,
    cross entries the cell entry over twice the adjacent-cell count.
    Dividing, rather than multiplying by a reciprocal, gives identity
    tensors the identity matrix exactly.
    """
    rows = np.repeat(grid.dof_volumes("face"), np.diff(Mf.indptr))
    return sp.csr_matrix((Mf.data / rows, Mf.indices, Mf.indptr), shape=Mf.shape)


class TangentialTrace:
    """Complex tangential data on the edge dofs of a boundary patch: an
    (n_dofs,) vector, or an (n_dofs, k) block of k data column by column."""

    def __init__(self, patch: BoundaryPatch, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim not in (1, 2) or len(values) != patch.n_dofs:
            raise ConfigurationError(
                f"trace shape {values.shape} is not ({patch.n_dofs},) or ({patch.n_dofs}, k)")
        if _not_finite(values):
            raise ConfigurationError("trace carries non-finite values")
        self.patch = patch
        self.values = values
        self.values.flags.writeable = False


def _not_finite(a):
    # a contiguous complex array is tested through its real view, which
    # numpy checks faster than the complex array itself
    a = np.asarray(a)
    return not np.isfinite(a.view(float) if a.dtype == complex and a.flags.c_contiguous
                           else a).all()


def real_matmul(*factors):
    """A @ ... @ B @ z for real matrices A ... B and a last factor z: one
    chain of real products per part of a complex z that is not all zero.
    numpy and scipy would otherwise copy each matrix into a complex array."""
    *mats, z = factors
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        for A in reversed(mats):
            z = A @ z
        return z
    out = np.zeros(mats[0].shape[:1] + z.shape[1:], dtype=complex)
    for part, view in ((z.real, out.real), (z.imag, out.imag)):
        part = np.ascontiguousarray(part)
        if part.any():
            for A in reversed(mats):
                part = A @ part
            view[...] = part
    return out


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
            we = grid.dof_volumes("edge", support.mask)
            wf = grid.dof_volumes("face", support.mask)
            if np.abs(self.F[we == 0]).max(initial=0) > 0 or \
                    np.abs(self.Ftilde[wf == 0]).max(initial=0) > 0:
                raise ConfigurationError("source support leaks outside its declared region")
        self.support = support


class FieldPair:
    """Complex (E, H) sampled on the staggered dofs of one grid: vectors, or
    (n_edges, k) and (n_faces, k) blocks holding k fields column by column."""

    def __init__(self, grid: Grid, E, H):
        E = np.asarray(E, dtype=complex)
        H = np.asarray(H, dtype=complex)
        if E.shape[:1] != (grid.n_edges,) or H.shape != (grid.n_faces,) + E.shape[1:]:
            raise ConfigurationError("field lengths must match the grid dof counts")
        if _not_finite(E) or _not_finite(H):
            raise ConfigurationError("fields carry non-finite values")
        self.grid = grid
        self.E = E
        self.H = H


def reference_medium(mat: MaterialField, mu_inv):
    """(eps0, deps, nu0, dnu) of the constant reference medium.

    eps0 and nu0 are the cell means of tr eps / 3 and tr mu^-1 / 3; deps and
    dnu are the largest Frobenius distance of a cell tensor from eps0 I and
    nu0 I, so both are zero for a constant scalar medium.  The means run over
    every cell, a uniform medium included (the mean of n equal values need
    not be that value); the distances run over ``mat.cells``.
    """
    out = []
    for t in (mat.eps, mu_inv):
        t0 = np.trace(t, axis1=-2, axis2=-1).mean() / 3.0
        out += [t0, float(np.linalg.norm(mat.cells(t) - t0 * np.eye(3), axis=(-2, -1)).max())]
    return tuple(out)


def mode_table(grid: Grid):
    """(node, lams): s_d = 2/h sin(pi m_d / 2 n_d) over the DST-I nodal
    modes m_d = 1..n_d-1 of each axis d, and lam = sum_d s_d^2 over the edge
    modes of each component a (DCT-II from m_a = 0 along a, DST-I along the
    other two).  Each axis d is laid along axis d of a 3-D grid block, so the
    tables broadcast against a block with right-hand sides on a leading
    axis."""
    def factor(d, first):
        m = np.arange(first, grid.n[d])
        s = 2.0 / grid.h * np.sin(np.pi * m / (2 * grid.n[d]))
        return s.reshape([-1 if e == d else 1 for e in range(3)])

    node = [factor(d, 1) for d in range(3)]
    lams = [sum(factor(d, int(d != a)) ** 2 for d in range(3)) for a in range(3)]
    return node, lams


def mode_matrices(grid: Grid):
    """Per axis d, the orthonormal DCT-II matrix of size n_d and the
    orthonormal DST-I matrix of size n_d - 1, row m holding ``mode_table``'s
    mode m (from 0 and from 1).  Both are orthogonal; DST-I is symmetric."""
    out = []
    for n in grid.n:
        j = np.arange(n)
        scale = np.sqrt((2.0 - (j == 0)) / n)[:, None]
        out.append((scale * np.cos(np.pi * np.outer(j, 2 * j + 1) / (2 * n)),
                    np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j[1:], j[1:]) / n)))
    return out


def reference_inverse(grid: Grid, omega, eps0, deps, nu0, dnu, signed=False):
    """The function applying |L0|^-1 on interior edges, the MINRES
    preconditioner, or with ``signed`` the inverse L0^-1 itself, to an (n,)
    vector or to the columns of an (n, k) block.

    L0 = h^3 (nu0 C^T C - omega^2 eps0) is the operator of the constant
    reference medium (``reference_medium``).  Under tangential-Dirichlet
    walls each component of an interior edge field expands in DCT-II modes
    along its own axis and DST-I modes along the other two.  The gradient of
    a DST-I nodal mode m is, per component d, the matching edge mode times
    s_d (``mode_table``).  So mode by mode the field splits into its
    gradient part, where L0 is -h^3 omega^2 eps0, and the remainder, where
    C^T C is the Laplacian eigenvalue lam = sum_d s_d^2.  Both parts are
    scaled by the inverse modulus.  L_II departs from L0 on a remainder mode
    by at most h^3 (dnu lam + omega^2 deps), so the remainder's denominator
    is floored there and M stays bounded near a resonance of the reference
    medium.  With signs kept, this is the exact inverse of L_II for any
    constant scalar medium (where deps = dnu = 0 and the floor is rounding).

    A component's block of k columns is a (p, q, r, k) grid block.  Each
    axis of a transform is one flat GEMM with a ``mode_matrices`` entry: the
    forward transform multiplies the leading axis and moves it last, so
    three products take (p, q, r, k) to (k, p, q, r), where the mode table
    scales it; the inverse multiplies the trailing axis and moves it first,
    back to (p, q, r, k).  A vector is the block of one column.
    """
    h = grid.h
    shift = omega ** 2 * eps0
    node, lams = mode_table(grid)
    floor = omega ** 2 * deps + np.finfo(float).eps * (nu0 * max(lam.max() for lam in lams) + shift)
    d_rem = [(np.sign(nu0 * lam - shift) if signed else 1.0)
             / (h ** 3 * np.maximum(np.abs(nu0 * lam - shift), dnu * lam + floor))
             for lam in lams]
    own = [(...,) + tuple(slice(1, None) if d == a else slice(None) for d in range(3))
           for a in range(3)]
    # the gradient part is G (G^T G)^-1 G^T r; it swaps the remainder's scale
    # for 1 / (h^3 omega^2 eps0), negated with signs kept
    lam_node = sum(s ** 2 for s in node)
    grad = (-1.0 if signed else 1.0) / (h ** 3 * shift)
    swap = [(grad - d_rem[a][own[a]]) * node[a] / lam_node for a in range(3)]
    bounds = np.cumsum([0] + [lam.size for lam in lams])
    pairs = mode_matrices(grid)
    # per component a, the transposed matrix of each axis d (DCT-II along a,
    # DST-I along the other axes): x^T T^T is (T x)^T, so both directions
    # multiply by T^T
    mats = [[pairs[d][d != a].T for d in range(3)] for a in range(3)]

    def apply(r):
        cols = np.ascontiguousarray(np.reshape(r, (len(r), -1)))
        k = cols.shape[1]
        hats = []
        for a in range(3):
            # forward: each product takes the leading axis and moves it last
            x = cols[bounds[a]:bounds[a + 1]]
            for tt in mats[a]:
                x = x.reshape(len(tt), -1).T @ tt
            hats.append(x.reshape((k,) + lams[a].shape))
        # G^T r on the nodal modes
        div = node[0] * hats[0][own[0]] + node[1] * hats[1][own[1]] + node[2] * hats[2][own[2]]
        out = np.empty(cols.shape)
        for a in range(3):
            y = hats[a]
            y *= d_rem[a]
            y[own[a]] += swap[a] * div
            # inverse: each product takes the trailing axis and moves it
            # first; the last writes the component's rows of ``out``
            t0, t1, t2 = mats[a]
            y = t2 @ y.reshape(-1, len(t2)).T
            y = t1 @ y.reshape(-1, len(t1)).T
            np.matmul(t0, y.reshape(-1, len(t0)).T,
                      out=out[bounds[a]:bounds[a + 1]].reshape(len(t0), -1))
        return out.reshape(np.shape(r))

    return apply


class SystemMatrix:
    """Assembled curl-curl operator with its interior factorization.

    Systems of interior dimension up to ``direct_limit`` are solved against a
    SuperLU factorization, larger ones on the Krylov path.  In a constant
    scalar medium, on either path, the transform start X = L0^-1 B applies
    the exact inverse of that medium (``reference_inverse`` with signs kept)
    to all columns of B at once and solves them outright.  Every column it
    misses, and in other media every column, goes to the path's own solver:
    the factorization, or MINRES preconditioned with |L0|^-1 from a zero
    start.  The direct path also factorizes for the resonance guard's
    vectors.  ``solve_interior`` checks the residual of every column it
    returns but the guard's.  Immutable after assembly apart from the lazily
    built factorization and reference inverses and the cached resonance
    margin.
    """

    def __init__(self, grid, material, omega, L, curl, mu_inv_point, solver_tol,
                 direct_limit, reference):
        self.grid = grid
        self.material = material
        self.reference = reference
        self.omega = float(omega)
        self.curl = curl
        self.mu_inv_point = mu_inv_point
        self.solver_tol = solver_tol
        self.idx_interior = grid.interior_edge_indices()
        self.idx_boundary = grid.boundary_edge_indices()
        L_I = L[self.idx_interior]
        self.L_II, self.L_IB = L_I[:, self.idx_interior], L_I[:, self.idx_boundary]
        del L_I  # not held while |L_II| is formed below
        # |L_II| 1, summed along each row in column order
        abs_II = sp.csr_matrix((np.abs(self.L_II.data), self.L_II.indices, self.L_II.indptr),
                               shape=self.L_II.shape)
        self.norm_estimate = float((abs_II @ np.ones(abs_II.shape[1])).max())
        self.dimension = self.L_II.shape[0]
        self.direct = self.dimension <= direct_limit
        # a constant scalar medium, up to the rounding of the cell means
        eps0, deps, nu0, dnu = reference
        self.constant = max(deps / eps0, dnu / nu0) <= 1e-14
        self._lu = None
        self._inverses = {}
        self.margin = None

    def _reference_inverse(self, signed):
        if signed not in self._inverses:
            self._inverses[signed] = reference_inverse(self.grid, self.omega, *self.reference,
                                                       signed=signed)
        return self._inverses[signed]

    def _preconditioner(self):
        """|L0|^-1 as the operator MINRES takes for M."""
        apply = self._reference_inverse(False)
        return spla.LinearOperator(self.L_II.shape, matvec=apply, matmat=apply, dtype=float)

    def _transform_start(self, b):
        """L0^-1 b for an (n, k) block, by one call of the mode-table
        function, and each column's residual norm ||L_II x - b||: the one
        residual product of every column the start solves."""
        x = self._reference_inverse(True)(b)
        r = self.L_II @ x
        r -= b
        return x, np.linalg.norm(r, axis=0)

    def _factorize(self):
        if self._lu is None:
            # L_II is exactly symmetric, so its transpose is its CSC form
            self._lu = spla.splu(self.L_II.T, permc_spec="MMD_AT_PLUS_A",
                                 options=dict(SymmetricMode=True))
        return self._lu

    def solve_interior(self, rhs):
        """Solve L_II x = rhs for an (n,) vector or an (n, k) block.

        A real (n,) vector on the direct path, the resonance guard's, goes to
        the factorization unchecked.  Anything else is solved as one real
        block (``_solve_real``): a complex right-hand side as the real view
        of its columns' real and imaginary parts side by side, less a part
        that is all zero in every column, whose solutions are +0.0.  Raises
        NumericError when a column's relative residual exceeds
        10 * solver_tol, naming the worst; its history holds every column's
        residual.
        """
        if self.direct and rhs.ndim == 1 and not np.iscomplexobj(rhs):
            return self._factorize().solve(rhs)
        cols = np.reshape(rhs, (len(rhs), -1))
        k = cols.shape[1]
        complex_rhs = np.iscomplexobj(cols)
        # a complex block's real view: column j's real part is column 2j, its
        # imaginary part column 2j + 1
        B = np.ascontiguousarray(cols).view(float) if complex_rhs else cols
        live = (cols.real.any(), cols.imag.any()) if complex_rhs else (True,)
        if all(live):
            X, resid, scale = self._solve_real(B)
        else:
            # one part is all zero in every column: its solutions are +0.0
            X, resid, scale = np.zeros(B.shape), np.zeros(2 * k), np.zeros(2 * k)
            if any(live):
                cut = slice(live.index(True), None, 2)
                X[:, cut], resid[cut], scale[cut] = self._solve_real(
                    np.ascontiguousarray(B[:, cut]))
        if complex_rhs:
            X = X.view(complex)
            resid, scale = np.hypot(resid[0::2], resid[1::2]), np.hypot(scale[0::2], scale[1::2])
        rel = np.divide(resid, scale, out=np.zeros(k), where=scale > 0)
        if (rel > 10 * self.solver_tol).any():
            raise NumericError(f"interior solve at relative residual {rel.max():.3e}",
                               history=rel.tolist())
        return X.reshape(rhs.shape)

    def _solve_real(self, B):
        """X solving L_II X = B for a real (n, k) block, and each column's
        residual and right-hand side norms.  The transform start solves and
        checks every column in a constant scalar medium; the columns that
        miss ``solver_tol``, and in other media all, go on to the path's own
        solver and its residual."""
        nb = np.linalg.norm(B, axis=0)
        if self.constant:
            X, resid = self._transform_start(B)
        else:
            X, resid = np.zeros(B.shape), nb.copy()
        miss = resid > self.solver_tol * nb
        if self.direct and miss.any():
            X[:, miss] = self._factorize().solve(B[:, miss])
            resid[miss] = np.linalg.norm(self.L_II @ X[:, miss] - B[:, miss], axis=0)
        elif not self.direct:
            for j in np.flatnonzero(miss):
                X[:, j], resid[j] = self._minres_restarts(B[:, j])
        return X, resid, nb

    def _minres_restarts(self, b):
        """x solving L_II x = b, and its residual norm.  minres stops on its
        preconditioned residual estimate relative to |L_II| |x|, not |b|, so
        the correction is solved for again until the true residual meets
        ``solver_tol`` or a run fails; ``solve_interior`` judges the rest."""
        x, r = np.zeros_like(b), b
        for _ in range(KRYLOV_RESTARTS):
            dx, info = self._minres(r, self.solver_tol)
            if info != 0:
                break
            x = x + dx
            r = b - self.L_II @ x
            if np.linalg.norm(r) <= self.solver_tol * np.linalg.norm(b):
                break
        return x, np.linalg.norm(r)

    def _minres(self, b, rtol, x0=None):
        """One preconditioned MINRES run on L_II x = b; returns (x, info)."""
        return spla.minres(self.L_II, b, x0=x0, rtol=rtol, maxiter=KRYLOV_MAXITER,
                           M=self._preconditioner())


def assemble(grid: Grid, mat: MaterialField, omega, *,
             resonance_threshold=RESONANCE_THRESHOLD, check_resonance=True,
             solver_tol=SOLVER_TOL, direct_limit=DIRECT_LIMIT) -> SystemMatrix:
    """Assemble curl(mu^-1 curl .) - omega^2 eps on interior edges.

    Raises ResonantFrequencyError when the relative smallest-singular-value
    estimate falls below ``resonance_threshold``; the error carries a detuned
    frequency suggestion probed at +-7 percent, or is a LowFrequencyError with
    none when the gradient branch of a constant scalar medium sets the margin.
    """
    if not (omega > 0):
        raise ConfigurationError("omega must be positive")
    C = curl_matrix(grid)
    mu_inv = mat.mu_inv()
    Mf = material_matrix(grid, mu_inv, "face")
    Me = material_matrix(grid, mat.eps, "edge")
    # K = C^T Mf C, freed by rebinding L before the split
    L = (C.T @ Mf @ C).tocsr()
    L = (L - omega ** 2 * Me).tocsr()
    # Cross blocks break the exact symmetry of K, so L is averaged with its
    # transpose.  With diagonal tensors two distinct edges share at most one
    # face: each off-diagonal entry is one product (+-1/h) d (+-1/h) and L is
    # exactly symmetric already.
    off_diagonal = ~np.eye(3, dtype=bool)
    if any(mat.cells(t)[..., off_diagonal].any() for t in (mat.eps, mu_inv)):
        L = ((L + L.T) * 0.5).tocsr()
    sys = SystemMatrix(grid, mat, omega, L, C, _pointwise(grid, Mf), solver_tol, direct_limit,
                       reference_medium(mat, mu_inv))
    del L  # the system keeps its interior rows only; freed before the guard
    if check_resonance:
        margin = resonance_guard(sys)
        if margin < resonance_threshold:
            grad, curl = constant_branches(sys) if sys.constant else (np.inf, 0.0)
            if grad <= curl:
                w2h2 = omega ** 2 * grid.h ** 2
                raise LowFrequencyError(
                    f"omega={omega:g} is too low for h={grid.h:g}: the gradient modes set the "
                    f"relative margin {margin:.3e} < {resonance_threshold:g} (omega^2 h^2 = "
                    f"{w2h2:.3e}); no detuning raises it", margin=margin, omega2_h2=w2h2)
            suggestion = _suggest_detuned(grid, mat, omega, solver_tol, direct_limit)
            raise ResonantFrequencyError(
                f"omega={omega:g} sits near a resonance "
                f"(relative margin {margin:.3e} < {resonance_threshold:g})"
                + ("" if suggestion is None else f"; try omega={suggestion:g}"),
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


def constant_branches(sys: SystemMatrix):
    """The smallest |eigenvalue| / h^3 of L_II in a constant scalar medium
    on its gradient modes, omega^2 eps0 (every grid of at least 4 cells per
    axis has them), and on its curl-curl modes, |nu0 lam - omega^2 eps0|."""
    eps0, _, nu0, _ = sys.reference
    shift = sys.omega ** 2 * eps0
    return shift, min(np.abs(nu0 * lam - shift).min() for lam in mode_table(sys.grid)[1])


def resonance_guard(sys: SystemMatrix):
    """Relative smallest-singular-value estimate sigma_min / ``norm_estimate``.

    On the Krylov path a constant scalar medium gives sigma_min exactly, h^3
    times the smaller ``constant_branches``.  Otherwise sigma_min is
    estimated by inverse power iterations: LU back-solves on the direct path,
    and on the Krylov path one MINRES run per step at ``GUARD_TOL``,
    warm-started from the Rayleigh-quotient guess v / (v^T L v) and
    preconditioned by ``reference_inverse``: once v is near the smallest
    eigenvector the start is nearly exact in that direction.  The loose
    tolerance leaves the margin within 4e-4 relative of the direct one on the
    smooth and anisotropic media of the tests, where M is inexact.
    """
    if sys.margin is not None:
        return sys.margin
    if sys.constant and not sys.direct:
        sigma_min = sys.grid.h ** 3 * min(constant_branches(sys))
    else:
        rng = np.random.default_rng(GUARD_SEED)
        v = rng.standard_normal(sys.dimension)
        v /= np.linalg.norm(v)
        sigma_min = None
        for _ in range(GUARD_ITERATIONS):
            w = sys.solve_interior(v) if sys.direct else _guard_step(sys, v)
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            sigma_min = 1.0 / nw
            v = w / nw
    sys.margin = float(sigma_min / sys.norm_estimate)
    return sys.margin


def _guard_step(sys: SystemMatrix, v):
    """Loose solve of L_II w = v for a unit vector v: one warm-started MINRES
    run."""
    w, info = sys._minres(v, GUARD_TOL, x0=v / (v @ (sys.L_II @ v)))
    if info != 0:
        rel = float(np.linalg.norm(sys.L_II @ w - v))
        raise NumericError(f"resonance guard step stalled at relative residual {rel:.3e}",
                           history=[rel])
    return w


def lift(sys: SystemMatrix, eB, rhs):
    """Fields with boundary edges ``eB`` and interior edges solving
    L_II eI = rhs, with H = (i omega)^-1 mu^-1 curl E.

    ``rhs`` already carries the boundary data (-L_IB eB) or the volume
    source.  An (n,) ``rhs`` gives a FieldPair of vectors; an (n, k) block
    with (n_B, k) ``eB`` is solved in one call and gives one of blocks.
    ``solve_interior`` checks each column's residual; H takes real products.
    """
    grid = sys.grid
    E = np.zeros((grid.n_edges,) + np.shape(rhs)[1:], dtype=complex)
    E[sys.idx_boundary] = eB
    E[sys.idx_interior] = sys.solve_interior(rhs)
    H = real_matmul(sys.mu_inv_point, sys.curl, E)
    H *= -1j / sys.omega
    return FieldPair(grid, E, H)


def solve_bvp(sys: SystemMatrix, trace: TangentialTrace) -> FieldPair:
    """Solve the interior problem with lifted tangential boundary data; a
    trace of k columns is one ``lift``, giving a FieldPair of blocks."""
    eB = np.zeros((sys.grid.n_edges,) + trace.values.shape[1:], dtype=complex)
    eB[trace.patch.edge_dofs] = trace.values
    eB = eB[sys.idx_boundary]
    rhs = real_matmul(sys.L_IB, eB)
    return lift(sys, eB, np.negative(rhs, out=rhs))


def weak_rhs(sys: SystemMatrix, src: SourceTerm):
    """Volume-weighted right-hand side of F + curl Ftilde."""
    grid = sys.grid
    return (grid.dof_volumes("edge") * src.F
            + sys.curl.T @ (grid.dof_volumes("face") * src.Ftilde))


def solve_source(sys: SystemMatrix, src: SourceTerm) -> FieldPair:
    """Solve the source problem with homogeneous tangential boundary data."""
    return lift(sys, 0.0, weak_rhs(sys, src)[sys.idx_interior])


def derive_H_from_E(E, mat: MaterialField, omega) -> np.ndarray:
    """H = (i omega)^-1 mu^-1 curl E on face dofs."""
    grid = mat.grid
    P = _pointwise(grid, material_matrix(grid, mat.mu_inv(), "face"))
    return P @ (curl_matrix(grid) @ np.asarray(E, dtype=complex)) / (1j * omega)


def residual(fields: FieldPair, sys: SystemMatrix, src: SourceTerm | None = None):
    """Relative first-order system residual of a field pair.

    Faraday channel: mu^-1 curl E - i omega H on faces.  Ampere channel: the
    volume-normalized defect of the assembled second-order operator on
    interior edges (zero up to solver tolerance for solver outputs, O(h^2)
    for sampled analytic solutions).
    """
    grid = sys.grid
    we, wf = grid.dof_volumes("edge"), grid.dof_volumes("face")

    r_far = sys.mu_inv_point @ (sys.curl @ fields.E) - 1j * sys.omega * fields.H
    defect = sys.L_II @ fields.E[sys.idx_interior] + sys.L_IB @ fields.E[sys.idx_boundary]
    if src is not None:
        defect -= weak_rhs(sys, src)[sys.idx_interior]
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
