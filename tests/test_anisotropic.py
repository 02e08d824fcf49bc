"""Operator consistency for full (off-diagonal) tensor materials, checked
against a symbolically-derived manufactured field."""

import itertools

import numpy as np
import pytest
import sympy as sp

import rungelab as rl
from rungelab.solver import _cross_pairs, material_matrix

from conftest import cell_dof_slots

# constant symmetric tensors with all off-diagonal entries populated
EPS = np.array([[1.3, 0.2, 0.1],
                [0.2, 1.1, 0.15],
                [0.1, 0.15, 1.4]])
MU = np.array([[1.2, 0.1, 0.05],
               [0.1, 1.0, 0.1],
               [0.05, 0.1, 1.3]])
OMEGA = 2.0


def _manufactured():
    x, y, z = sp.symbols("x y z")
    E = sp.Matrix([sp.sin(2 * y) * sp.cos(z),
                   sp.cos(x) * sp.sin(z + y),
                   sp.sin(x + 2 * z)])

    def curl(v):
        return sp.Matrix([sp.diff(v[2], y) - sp.diff(v[1], z),
                          sp.diff(v[0], z) - sp.diff(v[2], x),
                          sp.diff(v[1], x) - sp.diff(v[0], y)])

    mu_inv = sp.Matrix(np.linalg.inv(MU))
    eps = sp.Matrix(EPS)
    target = curl(mu_inv * curl(E)) - OMEGA ** 2 * eps * E
    fE = sp.lambdify((x, y, z), E, "numpy")
    fT = sp.lambdify((x, y, z), target, "numpy")
    return fE, fT


def _tensor_field(grid, tensor):
    return np.broadcast_to(tensor, grid.n + (3, 3)).copy()


def _operator_defect(n, fE, fT):
    grid = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.MaterialField(grid, _tensor_field(grid, EPS), _tensor_field(grid, MU))
    C = rl.curl_matrix(grid)
    L = (C.T @ material_matrix(grid, mat.mu_inv(), "face") @ C
         - OMEGA ** 2 * material_matrix(grid, mat.eps, "edge")).tocsr()

    pts = grid.edge_midpoints()
    comp = grid.edge_components()
    evals = np.stack([np.asarray(fE(*p)).reshape(3) for p in pts])
    Eh = evals[np.arange(grid.n_edges), comp]

    interior = grid.interior_edge_indices()
    we = grid.dof_volumes("edge")
    applied = (L @ Eh)[interior] / we[interior]
    exact = np.stack([np.asarray(fT(*p)).reshape(3) for p in pts[interior]])
    exact = exact[np.arange(len(interior)), comp[interior]]
    return float(np.max(np.abs(applied - exact)))


def test_anisotropic_operator_consistency():
    fE, fT = _manufactured()
    coarse = _operator_defect(6, fE, fT)
    fine = _operator_defect(12, fE, fT)
    assert fine < coarse
    assert coarse / fine > 3.0, (coarse, fine)  # second-order truncation


def test_anisotropic_matrices_symmetric():
    grid = rl.build_grid((6, 6, 6), 1.0 / 6)
    mat = rl.MaterialField(grid, _tensor_field(grid, EPS), _tensor_field(grid, MU))
    Me = material_matrix(grid, mat.eps, "edge")
    Mf = material_matrix(grid, mat.mu_inv(), "face")
    for M in (Me, Mf):
        d = (M - M.T)
        d.eliminate_zeros()
        defect = np.abs(d.toarray()).max() if d.nnz else 0.0
        assert defect <= 1e-15


def _mu_inv_point(grid, spec):
    mat = rl.make_material(grid, spec)
    return rl.assemble(grid, mat, OMEGA).mu_inv_point, mat


def test_anisotropic_pointwise_identity_for_vacuum():
    grid = rl.build_grid((6, 6, 6), 1.0 / 6)
    P, _ = _mu_inv_point(grid, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.n_faces)
    assert np.array_equal(P @ v, v)


def test_anisotropic_pointwise_constant_tensor():
    grid = rl.build_grid((6, 6, 6), 1.0 / 6)
    # mu^-1 is MU up to the rounding of two inversions
    P, _ = _mu_inv_point(grid, {"kind": "constant", "eps": EPS, "mu": np.linalg.inv(MU)})
    # a constant vector field maps to the constant tensor product, exactly,
    # away from the walls where transverse averaging is complete
    vec = np.array([0.7, -0.4, 1.1])
    comp = grid.face_components()
    v = vec[comp].astype(float)
    out = P @ v
    expect = (MU @ vec)[comp]
    centers = grid.face_centers()
    inner = np.all((centers > 2 * grid.h) & (centers < 1 - 2 * grid.h), axis=1)
    assert np.allclose(out[inner], expect[inner], atol=1e-13)


@pytest.mark.parametrize("spec, rel", [
    ({"kind": "constant", "eps": 1.0, "mu": 1.0}, 0.0),
    ({"kind": "constant", "eps": 2.0, "mu": 0.5}, 0.0),
    ({"kind": "smooth", "seed": 5, "amplitude": 0.6}, 5e-16),
    ({"kind": "constant", "eps": EPS, "mu": MU}, 5e-16),
], ids=["vacuum", "eps2_mu05", "smooth", "full_tensor"])
def test_mu_inv_point_matches_per_cell_average(spec, rel):
    # pointwise mu^-1 by its definition, cell by cell: a face's diagonal
    # entry is the mean of its adjacent cells' mu^-1_aa; each cell adds
    # mu^-1_ab / (2 n_adj) between its a-faces and its b-faces.  At h = 1/9,
    # h^3 * (1 / h^3) != 1: only dividing by the face volumes is exact here
    grid = rl.build_grid((5, 6, 4), 1.0 / 9)
    P, mat = _mu_inv_point(grid, spec)
    mu_inv = np.broadcast_to(mat.mu_inv(), grid.n + (3, 3))
    n_adj = np.zeros(grid.n_faces)
    diag = np.zeros(grid.n_faces)
    for cell in np.ndindex(*grid.n):
        for a in range(3):
            for slot in cell_dof_slots(cell, "face", a):
                n_adj[grid.face_index(a, *slot)] += 1
                diag[grid.face_index(a, *slot)] += mu_inv[cell + (a, a)]
    want = np.diag(diag / n_adj)
    for cell in np.ndindex(*grid.n):
        for a, b in itertools.permutations(range(3), 2):
            for sa in cell_dof_slots(cell, "face", a):
                i = grid.face_index(a, *sa)
                for sb in cell_dof_slots(cell, "face", b):
                    want[i, grid.face_index(b, *sb)] += mu_inv[cell + (a, b)] / (2 * n_adj[i])
    got = P.toarray()
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


def test_anisotropic_solve_runs(grid8):
    mat = rl.MaterialField(grid8, _tensor_field(grid8, EPS), _tensor_field(grid8, MU))
    sys_ = rl.assemble(grid8, mat, OMEGA)
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(1)
    f = rng.standard_normal(patch.n_dofs) + 1j * rng.standard_normal(patch.n_dofs)
    fields = rl.solve_bvp(sys_, rl.TangentialTrace(patch, f))
    assert rl.residual(fields, sys_) <= 10 * sys_.solver_tol


@pytest.mark.parametrize("family", ["edge", "face"])
def test_cross_pairs_match_per_cell_loop(family):
    g = rl.build_grid((5, 7, 4), 0.2)
    rng = np.random.default_rng(7)
    tensors = rng.standard_normal(g.n + (3, 3))
    tensors = tensors + np.swapaxes(tensors, -1, -2)
    tensors[..., 0, 2] = tensors[..., 2, 0] = 0.0   # an entry that is zero everywhere
    index = g.edge_index if family == "edge" else g.face_index
    want = []
    for cell in np.ndindex(*g.n):
        for a in range(3):
            for b in range(3):
                if a == b or not tensors[..., a, b].any():
                    continue
                for sa in cell_dof_slots(cell, family, a):
                    for sb in cell_dof_slots(cell, family, b):
                        want.append((a, b, index(a, *sa), index(b, *sb),
                                     tuple(np.subtract(sa, cell)), tuple(np.subtract(sb, cell)),
                                     tensors[cell + (a, b)]))
    got = []
    for a in range(3):
        for b, oa, ob, ga, gb, coeff in _cross_pairs(g, tensors, family, a):
            got.extend((a, b, int(i), int(j), tuple(oa), tuple(ob), float(c))
                       for i, j, c in zip(ga, gb, coeff))
    assert sorted(got) == sorted(want)
