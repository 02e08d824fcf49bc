from collections import Counter

import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import ConfigurationError, LowFrequencyError, ResonantFrequencyError
from rungelab.solver import SourceTerm, TangentialTrace, assemble, resonance_guard, weak_rhs

from conftest import FakeLU, rng_complex, transform_off


def test_matrix_dimension(sys8):
    assert sys8.dimension == 3 * 8 * 7 * 7 == 1176


def test_mimetic_identity(grid8):
    defect = rl.mimetic_defect(grid8)
    assert defect.nnz == 0
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(grid8.n_edges)
        out = defect @ v
        assert np.all(out == 0.0)


# constant symmetric tensors with every off-diagonal entry populated
FULL_EPS = [[1.3, 0.2, 0.1], [0.2, 1.1, 0.15], [0.1, 0.15, 1.4]]
FULL_MU = [[1.2, 0.1, 0.05], [0.1, 1.0, 0.1], [0.05, 0.1, 1.3]]
MEDIA = {
    "layered": {"kind": "layered", "axis": 0, "breakpoints": [0.5], "tensors": [1.0, 2.0],
                "smoothing": 0.25},
    "smooth": {"kind": "smooth", "seed": 3, "amplitude": 0.3},
    "full_tensor": {"kind": "constant", "eps": FULL_EPS, "mu": FULL_MU},
    "scalar": {"kind": "constant", "eps": 2.0, "mu": 0.5},
    "diagonal": {"kind": "constant", "eps": [1.0, 2.0, 3.0], "mu": [1.5, 1.0, 0.8]},
}


@pytest.mark.parametrize("medium", ["vacuum", "layered", "smooth", "full_tensor"])
def test_system_symmetry(medium, sys8, grid8):
    sys_ = sys8 if medium == "vacuum" else assemble(
        grid8, rl.make_material(grid8, MEDIA[medium]), 2.0)
    # exact: the factorization reads L_II^T as the CSC form of L_II
    d = (sys_.L_II - sys_.L_II.T)
    d.eliminate_zeros()
    assert d.nnz == 0


@pytest.mark.parametrize("medium", ["vacuum", "scalar", "diagonal", "full_tensor"])
def test_uniform_medium_matches_per_cell_formulas(medium, grid8):
    """A uniform medium works on one tensor; every result equals, bit for bit,
    the formula run over every cell."""
    spec = MEDIA.get(medium, {"kind": "constant"})
    mat = rl.make_material(grid8, spec)
    assert mat.uniform
    mu_inv = np.linalg.inv(mat.mu)
    assert np.array_equal(mat.mu_inv(), mu_inv)
    ev = np.concatenate([np.linalg.eigvalsh(mat.eps).ravel(), np.linalg.eigvalsh(mat.mu).ravel()])
    assert mat.c == min(ev.min(), 1.0 / ev.max())
    M = max(float(np.abs(t).max()) for t in (mat.eps, mat.mu))
    for t in (mat.eps, mat.mu):
        for axis in range(3):
            M = max(M, float((np.abs(np.diff(t, axis=axis)) / grid8.h).max()))
    assert mat.M == M

    sys_ = assemble(grid8, mat, 2.0)
    reference = []
    for t in (mat.eps, mu_inv):
        t0 = np.trace(t, axis1=-2, axis2=-1).mean() / 3.0
        reference += [t0, float(np.linalg.norm(t - t0 * np.eye(3), axis=(-2, -1)).max())]
    assert sys_.reference == tuple(reference)
    C = rl.solver.curl_matrix(grid8)
    K = (C.T @ rl.solver.material_matrix(grid8, mu_inv, "face") @ C).tocsr()
    L = (K - 2.0 ** 2 * rl.solver.material_matrix(grid8, mat.eps, "edge")).tocsr()
    L = ((L + L.T) * 0.5).tocsr()[sys_.idx_interior]
    for ours, theirs in ((sys_.L_II, L[:, sys_.idx_interior]),
                         (sys_.L_IB, L[:, sys_.idx_boundary])):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ours, part), getattr(theirs, part))


def test_zero_data_zero_solution(sys8, grid8):
    patch = rl.boundary_patch(grid8, "x-")
    fields = rl.solve_bvp(sys8, TangentialTrace(patch, np.zeros(patch.n_dofs)))
    assert np.abs(fields.E).max() == 0.0
    assert np.abs(fields.H).max() == 0.0


def test_linearity(sys8, grid8):
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(5)
    f = rng_complex(rng, patch.n_dofs)
    one = rl.solve_bvp(sys8, TangentialTrace(patch, f))
    two = rl.solve_bvp(sys8, TangentialTrace(patch, 2.0 * f))
    ref = np.linalg.norm(two.E)
    assert np.linalg.norm(two.E - 2 * one.E) <= 1e-12 * ref
    g = rng_complex(rng, patch.n_dofs)
    fg = rl.solve_bvp(sys8, TangentialTrace(patch, f + g))
    other = rl.solve_bvp(sys8, TangentialTrace(patch, g))
    assert np.linalg.norm(fg.E - one.E - other.E) <= 1e-12 * np.linalg.norm(fg.E)


@pytest.mark.parametrize("direct_limit", [rl.solver.DIRECT_LIMIT, 0])
@pytest.mark.parametrize("medium", ["vacuum", "smooth"])
def test_block_solve_bvp_matches_its_columns(grid8, vacuum8, medium, direct_limit):
    # the transform (vacuum) and MINRES (smooth, Krylov path) solve a block's
    # columns as they solve one column; SuperLU rounds a column of a
    # multi-column solve by its place in the block, so on the smooth direct
    # path the columns agree to rounding only
    mat = vacuum8 if medium == "vacuum" else rl.make_material(grid8, MEDIA["smooth"])
    sys_ = assemble(grid8, mat, 2.0, direct_limit=direct_limit)
    patch = rl.boundary_patch(grid8, ["x-", "y+"])
    values = rng_complex(np.random.default_rng(28), (patch.n_dofs, 5))
    block = rl.solve_bvp(sys_, TangentialTrace(patch, values))
    assert block.E.shape == (grid8.n_edges, 5) and block.H.shape == (grid8.n_faces, 5)
    for j in range(5):
        one = rl.solve_bvp(sys_, TangentialTrace(patch, values[:, j]))
        for a, b in ((block.E[:, j], one.E), (block.H[:, j], one.H)):
            if sys_.direct and not sys_.constant:
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
            else:
                assert a.tobytes() == b.tobytes()


def test_trace_rejects_bad_values(grid8):
    patch = rl.boundary_patch(grid8, "x-")
    n = patch.n_dofs
    for bad in (np.zeros((n, 2, 2)), np.zeros((n + 1, 3)), np.zeros(n - 1), np.float64(0.0)):
        with pytest.raises(ConfigurationError, match="trace shape"):
            TangentialTrace(patch, bad)
    block = np.zeros((n, 3), dtype=complex)
    block[4, 1] = complex(0.0, np.inf)
    with pytest.raises(ConfigurationError, match="non-finite"):
        TangentialTrace(patch, block)
    assert TangentialTrace(patch, block[:, ::2].real).values.shape == (n, 2)


def test_plane_wave_convergence_two_levels():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    grids = [rl.build_grid((n, n, n), 1.0 / n) for n in (8, 16)]
    rows = rl.convergence_study(sol, (rl.assemble(g, rl.make_material(g, {"kind": "constant"}),
                                                  2.0) for g in grids))
    assert rows[1][2] >= 1.8


def test_solve_source_zero(sys8, grid8):
    src = SourceTerm(grid8)
    fields = rl.solve_source(sys8, src)
    assert np.abs(fields.E).max() == 0.0


def test_solve_source_unique_continuation(sys8, grid8):
    # source supported in A: the solution cannot vanish on the complement
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.25})
    we = grid8.dof_volumes("edge", region.mask)
    F = np.zeros(grid8.n_edges, dtype=complex)
    F[we > 0] = 1.0
    src = SourceTerm(grid8, F=F, support=region)
    fields = rl.solve_source(sys8, src)
    comp = rl.carve_region(grid8, {"kind": "complement", "part":
                                   {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.25}})
    outside = rl.lp_norm(grid8, comp, 2, E=fields.E)
    assert outside > 1e-6


def test_source_support_validation(grid8):
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.25})
    F = np.ones(grid8.n_edges, dtype=complex)
    with pytest.raises(Exception):
        SourceTerm(grid8, F=F, support=region)


def test_reciprocity_surrogate(sys8, grid8):
    we = grid8.dof_volumes("edge")
    interior = grid8.interior_edge_indices()
    rng = np.random.default_rng(2)
    picks = rng.choice(interior, size=3, replace=False)
    fields = {}
    for i in picks:
        F = np.zeros(grid8.n_edges, dtype=complex)
        F[i] = 1.0
        fields[i] = rl.solve_source(sys8, SourceTerm(grid8, F=F))
    for i in picks:
        for j in picks:
            lhs = we[j] * fields[i].E[j]
            rhs = we[i] * fields[j].E[i]
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_derive_H_examples(grid8, vacuum8):
    E = np.ones(grid8.n_edges, dtype=complex)
    H = rl.derive_H_from_E(E, vacuum8, 2.0)
    assert np.abs(H).max() <= 1e-14
    rng = np.random.default_rng(1)
    E = rng_complex(rng, grid8.n_edges)
    assert np.allclose(rl.derive_H_from_E(3.0 * E, vacuum8, 2.0),
                       3.0 * rl.derive_H_from_E(E, vacuum8, 2.0))


def test_derive_H_plane_wave_accuracy():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    errs = []
    for n in (8, 16):
        g = rl.build_grid((n, n, n), 1.0 / n)
        mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
        pair = rl.sample_on_grid(sol, g)
        H = rl.derive_H_from_E(pair.E, mat, 2.0)
        errs.append(np.linalg.norm(H - pair.H) / np.linalg.norm(pair.H))
    assert errs[0] / errs[1] > 3.0  # O(h^2)


def test_residual_examples(sys8, grid8):
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(3)
    fields = rl.solve_bvp(sys8, TangentialTrace(patch, rng_complex(rng, patch.n_dofs)))
    assert rl.residual(fields, sys8) <= 10 * sys8.solver_tol

    noise = rl.FieldPair(grid8, rng_complex(rng, grid8.n_edges), rng_complex(rng, grid8.n_faces))
    assert rl.residual(noise, sys8) > 1e-3

    # the Ampere defect reads the source's interior rows
    src = SourceTerm(grid8, F=rng_complex(rng, grid8.n_edges))
    fields = rl.solve_source(sys8, src)
    assert rl.residual(fields, sys8, src) <= 10 * sys8.solver_tol
    assert rl.residual(fields, sys8) > 1e-3


def test_field_pair_blocks(grid8):
    rng = np.random.default_rng(4)
    E, H = rng_complex(rng, (grid8.n_edges, 3)), rng_complex(rng, (grid8.n_faces, 3))
    pair = rl.FieldPair(grid8, E, H)
    assert pair.E.shape == (grid8.n_edges, 3) and pair.H.shape == (grid8.n_faces, 3)
    for bad in ((E, H[:, :2]), (E, H[:, 0]), (E[:, 0], H), (E[1:], H[1:]), (E.T, H.T),
                (E[0, 0], H)):
        with pytest.raises(ConfigurationError, match="field lengths"):
            rl.FieldPair(grid8, *bad)


def test_residual_analytic_order():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    res = []
    for n in (8, 16):
        g = rl.build_grid((n, n, n), 1.0 / n)
        mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
        sys_ = rl.assemble(g, mat, 2.0)
        res.append(rl.residual(rl.sample_on_grid(sol, g), sys_))
    assert res[0] / res[1] > 3.0


def _cavity6():
    g = rl.build_grid((6, 6, 6), 1.0 / 6)
    return g, rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})


def _fine_sweep_near_first_resonance(g, mat):
    omegas = np.linspace(4.0, 5.0, 9)
    margins = []
    for om in omegas:
        s = rl.assemble(g, mat, om)
        margins.append(resonance_guard(s))
    dip = int(np.argmin(margins))
    assert 0 < dip < len(omegas) - 1, "sweep should bracket the first cavity resonance"
    return np.linspace(omegas[dip - 1], omegas[dip + 1], 41)


def test_resonance_sweep_and_guard():
    g, mat = _cavity6()
    # a fine search near the dip must produce a margin below threshold
    fine = _fine_sweep_near_first_resonance(g, mat)
    fine_margins = []
    for om in fine:
        s = rl.assemble(g, mat, om)
        fine_margins.append(resonance_guard(s))
    best = int(np.argmin(fine_margins))
    assert fine_margins[best] < 1e-4
    with pytest.raises(ResonantFrequencyError) as err:
        rl.solver.check_margin(rl.assemble(g, mat, fine[best]), 1e-4)
    assert err.value.suggested_omega is not None


def test_margin_deterministic(grid8, vacuum8):
    a = rl.assemble(grid8, vacuum8, 2.0)
    b = rl.assemble(grid8, vacuum8, 2.0)
    assert resonance_guard(a) == resonance_guard(b)


def test_krylov_path_matches_direct(grid8, vacuum8, sys8):
    iterative = assemble(grid8, vacuum8, 2.0, direct_limit=0)
    patch = rl.boundary_patch(grid8, "x-", window=((0.0, 0.0), (0.25, 0.25)))
    rng = np.random.default_rng(4)
    f = rng_complex(rng, patch.n_dofs)
    a = rl.solve_bvp(sys8, TangentialTrace(patch, f))
    b = rl.solve_bvp(iterative, TangentialTrace(patch, f))
    assert np.linalg.norm(a.E - b.E) <= 1e-6 * np.linalg.norm(a.E)


def test_weak_rhs_support(sys8, grid8):
    rng = np.random.default_rng(6)
    src = SourceTerm(grid8, F=rng_complex(rng, grid8.n_edges))
    rhs = weak_rhs(sys8, src)
    assert rhs.shape == (grid8.n_edges,)
    assert np.isfinite(rhs).all()


def test_krylov_nonconvergence_reports_history(grid8, vacuum8, krylov_stall):
    from rungelab.errors import NumericError

    iterative = assemble(grid8, vacuum8, 2.0, direct_limit=0)
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(9)
    with pytest.raises(NumericError) as err:
        rl.solve_bvp(iterative, TangentialTrace(patch, rng_complex(rng, patch.n_dofs)))
    assert err.value.history is not None


def test_krylov_guard_stall_raises(grid8, krylov_stall):
    import rungelab.solver as solver_mod
    from rungelab.errors import NumericError

    # a constant scalar medium takes no guard steps on the Krylov path
    smooth = rl.make_material(grid8, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    with pytest.raises(NumericError) as err:
        resonance_guard(assemble(grid8, smooth, 2.0, direct_limit=0))
    assert err.value.history[0] > solver_mod.GUARD_TOL


def test_concurrent_solves_deterministic(sys8, grid8):
    from concurrent.futures import ThreadPoolExecutor

    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(10)
    traces = [TangentialTrace(patch, rng_complex(rng, patch.n_dofs)) for _ in range(6)]
    serial = [rl.solve_bvp(sys8, t).E for t in traces]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(lambda t: rl.solve_bvp(sys8, t).E, traces))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("direct_limit", [rl.solver.DIRECT_LIMIT, 0])
def test_solve_interior_block_matches_columns(grid8, vacuum8, direct_limit):
    sys_ = assemble(grid8, vacuum8, 2.0, direct_limit=direct_limit)
    # right-hand sides of unit boundary data, the block the Cauchy study solves
    rng = np.random.default_rng(11)
    cols = rng.choice(sys_.L_IB.shape[1], size=8, replace=False)
    unit = -sys_.L_IB[:, cols].toarray()
    for block in (unit[:, :4], unit[:, :4] + 1j * unit[:, 4:]):
        X = sys_.solve_interior(block)
        assert X.shape == block.shape
        for j in range(block.shape[1]):
            x = sys_.solve_interior(np.ascontiguousarray(block[:, j]))
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)


class _CountingLU:
    """Stands in for a SuperLU object and counts its real solves."""

    def __init__(self, lu, calls):
        self.lu = lu
        self.calls = calls

    def solve(self, b):
        self.calls["lu"] += 1
        return self.lu.solve(b)


def _count_solves(monkeypatch, sys_):
    """Count the solver calls ``solve_interior`` makes, by kind: transform
    starts (vector or block), real LU solves and per-column MINRES solves."""
    calls = Counter()
    start, minres = sys_._transform_start, sys_._minres_restarts
    monkeypatch.setattr(sys_, "_transform_start",
                        lambda b: calls.update(["transform"]) or start(b))
    monkeypatch.setattr(sys_, "_minres_restarts", lambda b: calls.update(["minres"]) or minres(b))
    if sys_.direct:
        monkeypatch.setattr(sys_, "_lu", _CountingLU(sys_._factorize(), calls))
    return calls


@pytest.mark.parametrize("direct_limit", [rl.solver.DIRECT_LIMIT, 0])
def test_solve_interior_never_accepts_a_nan_residual(grid8, vacuum8, direct_limit, monkeypatch):
    # a NaN residual compares False with any tolerance: the start column that
    # reads one must go on to the path's own solver, and a NaN that is left
    # must fail the solve
    from rungelab.errors import NumericError

    sys_ = assemble(grid8, vacuum8, 2.0, direct_limit=direct_limit)
    b = -sys_.L_IB[:, np.flatnonzero(sys_.L_IB.getnnz(axis=0))[:3]].toarray()
    want = sys_.solve_interior(b)
    start = sys_._transform_start

    def nan_start(B):
        X, resid = start(B)
        X[:, 1], resid[1] = np.nan, np.nan
        return X, resid

    monkeypatch.setattr(sys_, "_transform_start", nan_start)
    x = sys_.solve_interior(b)
    assert np.isfinite(x).all()
    assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)
    if sys_.direct:
        monkeypatch.setattr(sys_, "_lu", FakeLU(lambda B: np.full(B.shape, np.nan)))
    else:
        monkeypatch.setattr(sys_, "_minres_restarts", lambda B: (np.full(B.shape, np.nan), np.nan))
    with pytest.raises(NumericError, match="relative residual nan") as err:
        sys_.solve_interior(b)
    assert np.isnan(err.value.history[1])
    assert max(err.value.history[0], err.value.history[2]) <= sys_.solver_tol

@pytest.mark.parametrize("ncols", [None, 3])
@pytest.mark.parametrize("direct_limit", [rl.solver.DIRECT_LIMIT, 0])
def test_solve_interior_skips_zero_parts(grid8, vacuum8, direct_limit, ncols, monkeypatch):
    smooth = rl.make_material(grid8, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    for mat in (vacuum8, smooth):
        sys_ = assemble(grid8, mat, 2.0, direct_limit=direct_limit)
        rng = np.random.default_rng(13)
        cols = rng.choice(sys_.L_IB.shape[1], size=3, replace=False)
        unit = -sys_.L_IB[:, cols].toarray()
        b = unit[:, 0].copy() if ncols is None else unit
        # the real block of one live part, and the real view of both parts
        # (column j's real part in column 2j, its imaginary part in 2j + 1)
        b2 = np.reshape(b, (len(b), -1))
        k = b2.shape[1]
        one = sys_._solve_real(b2)[0].reshape(b.shape)
        two = sys_._solve_real(np.repeat(b2, 2, axis=1))[0]
        cases = [(b + 0j, one + 0j, "imag"), (1j * b, 1j * one, "real"),
                 (b + 1j * b, two.view(complex).reshape(b.shape), None)]
        calls = _count_solves(monkeypatch, sys_)

        def solves(rhs):
            calls.clear()
            x = sys_.solve_interior(rhs)
            return dict(calls), x

        def want(m):
            # one real block of m columns: in a vacuum one transform on
            # either path; otherwise no transform, and one LU solve on the
            # direct path or MINRES on each column on the Krylov path
            if sys_.constant:
                return {"transform": 1}
            return {"lu": 1} if sys_.direct else {"minres": m}

        # a real vector on the direct path goes to the factorization
        assert solves(b)[0] == ({"lu": 1} if sys_.direct and ncols is None else want(k))
        for rhs, ref, skipped in cases:
            n, x = solves(rhs)
            assert n == want(k if skipped else 2 * k)
            assert x.dtype == complex and x.shape == rhs.shape
            assert np.array_equal(x, ref)
            # the bytes agree up to the sign of zero: a solve of a zero
            # entry can give -0.0 (SuperLU where its pivot is negative, the
            # signed transform where a mode's sign is), which the sum then
            # carries into exact zeros of the other part
            assert (x + 0.0).tobytes() == (ref + 0.0).tobytes()
            # a skipped part is +0.0
            if skipped:
                assert getattr(x, skipped).tobytes() == np.zeros(x.shape).tobytes()


def test_krylov_meets_its_tolerance_on_random_data():
    # minres stops on its own residual estimate, not on the true residual;
    # the smooth medium is where the reference preconditioner is inexact
    g = rl.build_grid((16, 16, 16), 1.0 / 16)
    for spec in ({"kind": "constant", "eps": 1.0, "mu": 1.0},
                 {"kind": "smooth", "seed": 3, "amplitude": 0.3}):
        mat = rl.make_material(g, spec)
        iterative = assemble(g, mat, 2.0, direct_limit=0)
        rng = np.random.default_rng(11)
        b = rng.standard_normal((iterative.dimension, 2))
        x = iterative.solve_interior(b)
        res = np.linalg.norm(iterative.L_II @ x - b, axis=0) / np.linalg.norm(b, axis=0)
        assert res.max() <= iterative.solver_tol


def _guard_margins(g, mat, omega):
    """Resonance margins of the direct and of the Krylov path."""
    return [resonance_guard(assemble(g, mat, omega, direct_limit=limit))
            for limit in (10 ** 9, 0)]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_krylov_guard_agrees_with_direct(n):
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    direct, krylov = _guard_margins(g, mat, 2.0)
    assert abs(krylov - direct) <= 1e-9 * direct


@pytest.mark.parametrize("omega", [2.0, 4.44, 7.3])
@pytest.mark.parametrize("spec", [{"kind": "constant", "eps": 1.0, "mu": 1.0},
                                  {"kind": "constant", "eps": 2.0, "mu": 0.5}],
                         ids=["vacuum", "eps2_mu05"])
@pytest.mark.parametrize("n", [6, 8])
def test_krylov_guard_margin_is_the_dense_spectrum(n, spec, omega):
    # eigh rather than eigvalsh: the eigenvalue-only LAPACK driver reads the
    # smallest modulus up to 1.1e-12 relative off at 6^3 and omega = 4.44
    g = rl.build_grid((n, n, n), 1.0 / n)
    sys_ = assemble(g, rl.make_material(g, spec), omega, direct_limit=0)
    dense = np.abs(np.linalg.eigh(sys_.L_II.toarray())[0]).min() / sys_.norm_estimate
    assert abs(resonance_guard(sys_) - dense) <= 1e-12 * dense


@pytest.mark.parametrize("spec", [{"kind": "constant", "eps": 1.0, "mu": 1.0},
                                  {"kind": "constant", "eps": 2.0, "mu": 0.5}],
                         ids=["vacuum", "eps2_mu05"])
@pytest.mark.parametrize("modes", [(0, 1, 1), (1, 1, 1)])
def test_krylov_guard_raises_at_a_cavity_resonance(grid8, spec, modes):
    mat = rl.make_material(grid8, spec)
    eps0, _, nu0, _ = rl.solver.reference_medium(mat, mat.mu_inv())
    lam = sum((2.0 * 8 * np.sin(np.pi * m / 16)) ** 2 for m in modes)
    omega = np.sqrt(nu0 * lam / eps0)
    with pytest.raises(ResonantFrequencyError) as err:
        rl.solver.check_margin(assemble(grid8, mat, omega, direct_limit=0))
    assert type(err.value) is ResonantFrequencyError
    assert err.value.margin < rl.solver.RESONANCE_THRESHOLD
    assert err.value.suggested_omega in (0.93 * omega, 1.07 * omega)


def _low_frequency_error(g, mat, direct_limit, monkeypatch):
    """The LowFrequencyError of assembling at omega = 0.02, which must suggest
    nothing and assemble nothing more."""
    import rungelab.solver as solver_mod

    calls = []
    monkeypatch.setattr(solver_mod, "assemble",
                        lambda *a, _f=solver_mod.assemble, **k: calls.append(1) or _f(*a, **k))
    with pytest.raises(LowFrequencyError) as err:
        solver_mod.check_margin(solver_mod.assemble(g, mat, 0.02, direct_limit=direct_limit))
    assert len(calls) == 1
    assert err.value.suggested_omega is None and "try omega=" not in str(err.value)
    assert err.value.omega2_h2 == 0.02 ** 2 * g.h ** 2
    return err.value


@pytest.mark.parametrize("direct_limit", [10 ** 9, 0])
@pytest.mark.parametrize("n", [8, 12])
def test_low_frequency_raises_without_a_suggestion(n, direct_limit, monkeypatch):
    # at omega = 0.02 the gradient branch h^3 omega^2 eps0 sets sigma_min, which
    # no detuning raises: the error suggests nothing and assembles nothing more
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant"})
    norm = assemble(g, mat, 0.02, direct_limit=direct_limit).norm_estimate
    err = _low_frequency_error(g, mat, direct_limit, monkeypatch)
    assert err.nearest_omega == 0.0
    assert err.margin == pytest.approx(g.h ** 3 * 0.02 ** 2 / norm, rel=1e-9)


@pytest.mark.parametrize("direct_limit", [10 ** 9, 0])
@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("medium", ["smooth", "full_tensor"])
def test_low_frequency_error_in_other_media(medium, n, direct_limit, monkeypatch):
    # the guard's vector is a gradient mode there too: omega_r^2 / omega^2
    # reads 4e-9 to 3.1e-8 on the direct path and 2.6e-3 to 3.8e-3 on the
    # Krylov path, far below 1/4; the resonance error used to suggest
    # omega = 0.0214 in the smooth medium
    g = rl.build_grid((n, n, n), 1.0 / n)
    err = _low_frequency_error(g, rl.make_material(g, MEDIA[medium]), direct_limit, monkeypatch)
    assert 0.0 <= err.nearest_omega < 0.1 * 0.02


@pytest.mark.parametrize("direct_limit", [10 ** 9, 0])
@pytest.mark.parametrize("medium", ["vacuum", "smooth"])
@pytest.mark.parametrize("detune", [0.99, 1.001])
def test_resonance_error_names_the_nearest_cavity_mode(grid8, medium, direct_limit, detune):
    # near the first cavity mode of 8^3 the nearest resonance is read off the
    # mode table in vacuum and off the guard's vector in the smooth medium;
    # either lies within 2e-3 of the mode, and the suggestion moves away
    mat = rl.make_material(grid8, {"kind": "constant"} if medium == "vacuum" else MEDIA[medium])
    omega1 = np.sqrt(rl.solver.mode_table(grid8)[1][0][0, 0, 0])
    omega = detune * omega1
    with pytest.raises(ResonantFrequencyError) as err:
        rl.solver.check_margin(assemble(grid8, mat, omega, direct_limit=direct_limit), 1e-3)
    assert type(err.value) is ResonantFrequencyError
    omega_r = err.value.nearest_omega
    assert abs(omega_r - omega1) <= 2e-3 * omega1
    assert f"resonance at omega={omega_r:.6g})" in str(err.value)
    assert (omega_r < omega) == (detune > 1)
    assert err.value.suggested_omega == omega * (1.07 if detune > 1 else 0.93)


@pytest.mark.parametrize("direct_limit", [10 ** 9, 0])
def test_nearest_resonance_converges_to_the_exact_mode(direct_limit):
    # omega_1 of the interior pencil (K, M), K = L_II + omega^2 M, by a dense
    # generalized eigensolve: the Rayleigh quotient at the guard's vector
    # closes in on it as omega does, 8.2e-4, 1.1e-6 and 1.4e-8 relative off
    # on the direct path and 7.6e-4, 1.3e-6 and 1.4e-8 on the Krylov path
    import scipy.linalg as sla

    g = rl.build_grid((6, 6, 6), 1.0 / 6)
    mat = rl.make_material(g, MEDIA["smooth"])
    base = assemble(g, mat, 2.0)
    interior = base.idx_interior
    M = rl.solver.material_matrix(g, mat.eps, "edge")[interior][:, interior].toarray()
    lam = sla.eigh(base.L_II.toarray() + 2.0 ** 2 * M, M, eigvals_only=True)
    omega1 = np.sqrt(lam[lam > 1e-6 * lam.max()][0])   # above the gradient null space
    assert omega1 == pytest.approx(4.390487, rel=1e-6)
    errors = []
    for f in (0.99, 0.995, 0.998):
        sys_ = assemble(g, mat, f * omega1, direct_limit=direct_limit)
        errors.append(abs(rl.solver.nearest_resonance(sys_) - omega1) / omega1)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-6


def test_krylov_guard_route(grid8, vacuum8, monkeypatch):
    # a constant scalar medium reads its margin off the mode table; any other
    # medium runs one warm-started MINRES per guard step, with no transform
    calls = Counter()
    for name in ("_transform_start", "_minres"):
        method = getattr(rl.solver.SystemMatrix, name)
        monkeypatch.setattr(rl.solver.SystemMatrix, name,
                            lambda self, *a, _m=method, _n=name, **k:
                            calls.update([_n]) or _m(self, *a, **k))
    sys_ = assemble(grid8, vacuum8, 2.0, direct_limit=0)
    assert resonance_guard(sys_) > 0 and dict(calls) == {}
    smooth = rl.make_material(grid8, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    resonance_guard(assemble(grid8, smooth, 2.0, direct_limit=0))
    assert dict(calls) == {"_minres": 12}


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "eps": [1.0, 2.0, 3.0], "mu": [1.5, 1.0, 0.8]},
    {"kind": "smooth", "seed": 3, "amplitude": 0.3},
    {"kind": "smooth", "seed": 5, "amplitude": 0.6},
], ids=["anisotropic", "smooth3", "smooth5"])
def test_krylov_guard_agrees_with_direct_off_the_reference_medium(spec):
    # a weak preconditioner leaves the loose guard steps off by 1.5e-3 to
    # 1.2e-2 relative on these media at 12^3
    g = rl.build_grid((12, 12, 12), 1.0 / 12)
    direct, krylov = _guard_margins(g, rl.make_material(g, spec), 2.0)
    assert abs(krylov - direct) <= 1e-3 * direct


@pytest.mark.parametrize("modes", [(0, 1, 1), (1, 1, 1)])
def test_krylov_path_at_a_resonance_of_the_reference_medium(modes):
    # omega^2 eps0 = nu0 lam for a low curl-curl mode of the reference medium:
    # the smooth medium itself is not resonant there, but a preconditioner
    # trusting the reference's zero would blow that mode up
    n = 12
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    eps0, _, nu0, _ = rl.solver.reference_medium(mat, mat.mu_inv())
    lam = sum((2.0 * n * np.sin(np.pi * m / (2 * n))) ** 2 for m in modes)
    omega = np.sqrt(nu0 * lam / eps0)
    direct, krylov = _guard_margins(g, mat, omega)
    assert abs(krylov - direct) <= 1e-3 * direct
    iterative = assemble(g, mat, omega, direct_limit=0)
    b = np.random.default_rng(18).standard_normal(iterative.dimension)
    x = iterative.solve_interior(b)
    assert np.linalg.norm(iterative.L_II @ x - b) <= iterative.solver_tol * np.linalg.norm(b)


def _dense(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


@pytest.mark.parametrize("spec", [{"kind": "constant", "eps": 1.0, "mu": 1.0},
                                  {"kind": "constant", "eps": 2.0, "mu": 0.5}],
                         ids=["vacuum", "eps2_mu05"])
def test_reference_inverse_is_the_exact_inverse_modulus(spec):
    # M = |L_II|^-1 for a constant scalar medium, so M L_II = sign(L_II)
    g = rl.build_grid((8, 10, 6), 0.1)
    sys_ = assemble(g, rl.make_material(g, spec), 2.0, direct_limit=0)
    M = _dense(sys_._preconditioner().matvec, sys_.dimension)
    assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
    b = np.random.default_rng(16).standard_normal(sys_.dimension)
    sign_b = M @ (sys_.L_II @ b)
    assert np.linalg.norm(M @ (sys_.L_II @ sign_b) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("spec", [{"kind": "constant", "eps": 1.0, "mu": 1.0},
                                  {"kind": "constant", "eps": 2.0, "mu": 0.5}],
                         ids=["vacuum", "eps2_mu05"])
def test_signed_reference_inverse_is_the_exact_inverse(spec):
    g = rl.build_grid((8, 10, 6), 0.1)
    sys_ = assemble(g, rl.make_material(g, spec), 2.0, direct_limit=0)
    S = _dense(sys_._reference_inverse(True), sys_.dimension)
    assert np.abs(S - S.T).max() <= 1e-14 * np.abs(S).max()
    b = np.random.default_rng(19).standard_normal(sys_.dimension)
    assert np.linalg.norm(sys_.L_II @ (S @ b) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("signed", [False, True], ids=["modulus", "signed"])
@pytest.mark.parametrize("spec", [{"kind": "constant", "eps": 1.0, "mu": 1.0},
                                  {"kind": "constant", "eps": 2.0, "mu": 0.5}],
                         ids=["vacuum", "eps2_mu05"])
def test_reference_inverse_applies_to_a_block_column_by_column(spec, signed):
    # one route for every width: blocks of 1, 2 and 64 columns give the
    # columns a vector gives, and the signed inverse solves them
    for shape, h in (((8, 10, 6), 0.1), ((12, 12, 12), 1.0 / 12)):
        g = rl.build_grid(shape, h)
        sys_ = assemble(g, rl.make_material(g, spec), 2.0, direct_limit=0)
        apply = sys_._reference_inverse(signed)
        B = np.random.default_rng(21).standard_normal((sys_.dimension, 64))
        cols = [apply(np.ascontiguousarray(b)) for b in B.T]
        for width in (1, 2, 64):
            X = apply(B[:, :width])
            assert X.shape == (sys_.dimension, width)
            for j in range(width):
                assert np.linalg.norm(X[:, j] - cols[j]) <= 1e-14 * np.linalg.norm(cols[j])
            if signed:
                res = np.linalg.norm(sys_.L_II @ X - B[:, :width], axis=0)
                assert np.all(res <= 1e-12 * np.linalg.norm(B[:, :width], axis=0))
        # a vector is the block of one column
        b = np.ascontiguousarray(B[:, 0])
        assert apply(b).tobytes() == apply(b[:, None]).tobytes()


def test_vacuum_block_on_the_direct_path_builds_no_factorization(grid8, vacuum8):
    sys_ = assemble(grid8, vacuum8, 2.0)
    assert sys_.direct and sys_.constant
    B = np.random.default_rng(22).standard_normal((sys_.dimension, 3))
    X = sys_.solve_interior(B)
    assert sys_._lu is None
    res = np.linalg.norm(sys_.L_II @ X - B, axis=0) / np.linalg.norm(B, axis=0)
    assert res.max() <= sys_.solver_tol


def test_complex_vector_on_the_direct_path_takes_the_transform(grid8, vacuum8, monkeypatch):
    import scipy.sparse.linalg as spla

    splu = spla.splu
    built = []
    monkeypatch.setattr(spla, "splu", lambda *a, **k: built.append(1) or splu(*a, **k))
    sys_ = assemble(grid8, vacuum8, 2.0)
    resonance_guard(sys_)   # the guard factorizes on the direct path
    assert sys_.direct and sys_.constant and len(built) == 1
    calls = _count_solves(monkeypatch, sys_)
    b = rng_complex(np.random.default_rng(24), sys_.dimension)
    x = sys_.solve_interior(b)
    assert dict(calls) == {"transform": 1}
    assert len(built) == 1
    assert np.linalg.norm(sys_.L_II @ x - b) <= sys_.solver_tol * np.linalg.norm(b)


@pytest.mark.parametrize("shape", [(8, 10, 6), (5, 7, 9)])
def test_mode_matrices_are_the_orthonormal_transforms(shape):
    import scipy.fft as fft

    g = rl.build_grid(shape, 0.1)
    for n, (dct, dst) in zip(shape, rl.solver.mode_matrices(g)):
        assert dct.shape == (n, n) and dst.shape == (n - 1, n - 1)
        assert np.abs(dct - fft.dct(np.eye(n), type=2, axis=0, norm="ortho")).max() <= 1e-14
        assert np.abs(dst - fft.dst(np.eye(n - 1), type=1, axis=0, norm="ortho")).max() <= 1e-14


def test_transform_start_meets_its_tolerance_at_32():
    g = rl.build_grid((32, 32, 32), 1.0 / 32)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    sys_ = assemble(g, mat, 2.0, direct_limit=0)
    B = np.random.default_rng(25).standard_normal((sys_.dimension, 4))
    X, resid = sys_._transform_start(B)
    res = np.linalg.norm(sys_.L_II @ X - B, axis=0) / np.linalg.norm(B, axis=0)
    assert res.max() <= 1e-11
    assert np.array_equal(resid, np.linalg.norm(sys_.L_II @ X - B, axis=0))


@pytest.mark.parametrize("direct_limit", [rl.solver.DIRECT_LIMIT, 0])
def test_a_column_the_transform_misses_goes_on_alone(grid8, vacuum8, direct_limit,
                                                      monkeypatch):
    sys_ = assemble(grid8, vacuum8, 2.0, direct_limit=direct_limit)
    exact = sys_._reference_inverse(True)
    skew = np.array([1.0, 1.0 + 1e-6, 1.0])

    def corrupt(b):
        return exact(b) * skew[:b.shape[1]] if b.ndim == 2 else exact(b)

    monkeypatch.setitem(sys_._inverses, True, corrupt)
    B = np.random.default_rng(23).standard_normal((sys_.dimension, 3))
    calls = _count_solves(monkeypatch, sys_)
    X = sys_.solve_interior(B)
    assert dict(calls) == {"transform": 1, "lu" if sys_.direct else "minres": 1}
    # the good columns are the transform's own
    start = exact(B)
    assert X[:, [0, 2]].tobytes() == start[:, [0, 2]].tobytes()
    res = np.linalg.norm(sys_.L_II @ X - B, axis=0) / np.linalg.norm(B, axis=0)
    assert res.max() <= sys_.solver_tol


def test_transform_start_leaves_a_smooth_medium_unchanged(monkeypatch):
    # a medium that is not constant takes no transform start: switching the
    # start off leaves the solve and the guard as they are
    g = rl.build_grid((12, 12, 12), 1.0 / 12)
    mat = rl.make_material(g, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    b = np.random.default_rng(20).standard_normal(3 * 12 * 11 * 11)

    def run():
        sys_ = assemble(g, mat, 2.0, direct_limit=0)
        return resonance_guard(sys_), sys_.solve_interior(b)

    margin, x = run()
    transform_off(monkeypatch)
    margin_off, x_off = run()
    assert margin == margin_off
    assert x.tobytes() == x_off.tobytes()


@pytest.mark.parametrize("n", [8, 16, 24])
def test_vacuum_krylov_solve_takes_few_iterations(n, monkeypatch):
    import scipy.sparse.linalg as spla

    minres = spla.minres
    runs = []
    monkeypatch.setattr(spla, "minres", lambda *a, **k: runs.append(a[1].shape) or minres(*a, **k))
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    sys_ = assemble(g, mat, 2.0, direct_limit=0)
    resonance_guard(sys_)   # with the resonance guard's steps
    b = np.random.default_rng(17).standard_normal(sys_.dimension)
    x = sys_.solve_interior(b)
    assert np.linalg.norm(sys_.L_II @ x - b) <= sys_.solver_tol * np.linalg.norm(b)
    assert runs == []   # the transform start solves every system


def test_krylov_guard_agrees_with_direct_near_resonance():
    g, mat = _cavity6()
    fine = _fine_sweep_near_first_resonance(g, mat)
    margins = np.array([_guard_margins(g, mat, om) for om in fine])
    direct, krylov = margins.T
    assert np.all(np.abs(krylov - direct) <= 1e-6 * direct)
    resonant = fine[int(np.argmin(direct))]
    with pytest.raises(ResonantFrequencyError) as err:
        rl.solver.check_margin(assemble(g, mat, resonant, direct_limit=0), 1e-4)
    assert type(err.value) is ResonantFrequencyError
    assert err.value.suggested_omega is not None


@pytest.mark.parametrize("n, direct", [(12, True), (16, False)])
def test_default_route(n, direct):
    # 12^3 carries the many-RHS reference studies; 16^3 is a verify level
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    assert assemble(g, mat, 2.0).direct is direct


def _smooth_direct(grid8):
    """A direct system whose medium is not constant, so that every column
    goes to the factorization."""
    sys_ = assemble(grid8, rl.make_material(grid8, MEDIA["smooth"]), 2.0)
    assert sys_.direct and not sys_.constant
    return sys_


def test_lift_error_carries_its_residual(grid8, monkeypatch):
    from rungelab.errors import NumericError

    sys_ = _smooth_direct(grid8)
    monkeypatch.setattr(sys_, "_lu", FakeLU(lambda b: 2.0 * b))
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(12)
    with pytest.raises(NumericError) as err:
        rl.solve_bvp(sys_, TangentialTrace(patch, rng_complex(rng, patch.n_dofs)))
    assert err.value.history[0] > 10 * sys_.solver_tol


def test_block_lift_error_names_the_bad_column(grid8, monkeypatch):
    from rungelab.errors import NumericError

    sys_ = _smooth_direct(grid8)
    lu = sys_._factorize()

    def corrupt_second_column(b):
        # the real block is the real view of the 3 complex columns, each
        # column's real part then its imaginary part: columns 2 and 3 are
        # the second column's
        x = lu.solve(b)
        x[:, [2, 3]] *= 2.0
        return x

    monkeypatch.setattr(sys_, "_lu", FakeLU(corrupt_second_column))
    rng = np.random.default_rng(14)
    eB = rng_complex(rng, (len(sys_.idx_boundary), 3))
    with pytest.raises(NumericError) as err:
        rl.solver.lift(sys_, eB, -(sys_.L_IB @ eB))
    history = err.value.history
    assert len(history) == 3
    # L (2 x) - b = b: the doubled column sits at relative residual 1
    assert history[1] == pytest.approx(1.0, rel=1e-9)
    assert max(history[0], history[2]) <= 10 * sys_.solver_tol
    assert f"{history[1]:.3e}" in str(err.value)


def test_one_residual_product_per_column(grid8, vacuum8, monkeypatch):
    # a real-data boundary column on the direct vacuum path is one transform
    # application whose residual the start checks; nothing after it computes
    # another, and the LU that the resonance guard built is not used
    sys_ = assemble(grid8, vacuum8, 2.0)
    resonance_guard(sys_)
    assert sys_.direct and sys_.constant and sys_._lu is not None
    calls = Counter()
    apply = sys_._reference_inverse(True)
    monkeypatch.setitem(sys_._inverses, True,
                        lambda b: calls.update(["transform"]) or apply(b))
    monkeypatch.setattr(sys_, "_lu", _CountingLU(sys_._lu, calls))

    class CountingMatrix:
        def __init__(self, A):
            self.A = A

        def __matmul__(self, x):
            calls["L_II"] += 1
            return self.A @ x

    monkeypatch.setattr(sys_, "L_II", CountingMatrix(sys_.L_II))
    patch = rl.boundary_patch(grid8, "x-")
    for values in (np.eye(1, patch.n_dofs, 7)[0],
                   np.random.default_rng(27).standard_normal(patch.n_dofs)):
        calls.clear()
        fields = rl.solve_bvp(sys_, TangentialTrace(patch, values))
        assert dict(calls) == {"transform": 1, "L_II": 1}
        assert not fields.E.imag.any() and not fields.H.real.any()


@pytest.mark.parametrize("medium", ["vacuum", "smooth", "full_tensor"])
def test_lift_H_matches_the_complex_formula(medium, grid8, sys8):
    spec = {"smooth": {"kind": "smooth", "seed": 5, "amplitude": 0.6},
            "full_tensor": MEDIA["full_tensor"]}.get(medium)
    sys_ = sys8 if spec is None else assemble(
        grid8, rl.make_material(grid8, spec), 2.0)
    rng = np.random.default_rng(16)
    for shape in ((len(sys_.idx_boundary),), (len(sys_.idx_boundary), 3)):
        eB = rng_complex(rng, shape)
        fields = rl.solver.lift(sys_, eB, -(sys_.L_IB @ eB))
        H = sys_.mu_inv_point @ (sys_.curl @ fields.E) / (1j * sys_.omega)
        assert np.all(np.abs(fields.H - H) <= 1e-15 * np.abs(H))


def test_krylov_block_lift_meets_its_tolerance(grid8, vacuum8, sys8):
    krylov = assemble(grid8, vacuum8, 2.0, direct_limit=0)
    rng = np.random.default_rng(15)
    eB = rng_complex(rng, (len(krylov.idx_boundary), 4))
    rhs = -(krylov.L_IB @ eB)
    fields = rl.solver.lift(krylov, eB, rhs)
    direct = rl.solver.lift(sys8, eB, -(sys8.L_IB @ eB))
    assert fields.E.shape == direct.E.shape == (grid8.n_edges, 4)
    assert fields.H.shape == direct.H.shape == (grid8.n_faces, 4)
    for j in range(4):
        a_E, a_H, b_E, b_H = fields.E[:, j], fields.H[:, j], direct.E[:, j], direct.H[:, j]
        r = krylov.L_II @ a_E[krylov.idx_interior] - rhs[:, j]
        assert np.linalg.norm(r) <= 10 * krylov.solver_tol * np.linalg.norm(rhs[:, j])
        assert np.linalg.norm(a_E - b_E) <= 1e-8 * np.linalg.norm(b_E)
        assert np.linalg.norm(a_H - b_H) <= 1e-8 * np.linalg.norm(b_H)
