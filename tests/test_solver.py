import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import ResonantFrequencyError
from rungelab.oracle import _whole_boundary, trace_of
from rungelab.solver import SourceTerm, TangentialTrace, assemble, resonance_guard, weak_rhs

from conftest import rng_complex


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


def test_system_symmetry(sys8):
    d = (sys8.L - sys8.L.T)
    d.eliminate_zeros()
    assert d.nnz == 0


def test_zero_data_zero_solution(sys8, grid8):
    patch = rl.boundary_patch(grid8, "x-")
    fields = rl.solve_bvp(sys8, TangentialTrace.zeros(patch))
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


def test_plane_wave_convergence_two_levels():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    grids = [rl.build_grid((n, n, n), 1.0 / n) for n in (8, 16)]
    rows = rl.convergence_study(sol, grids)
    assert rows[1][2] >= 1.8


def test_solve_source_zero(sys8, grid8):
    src = SourceTerm(grid8)
    fields = rl.solve_source(sys8, src)
    assert np.abs(fields.E).max() == 0.0


def test_solve_source_unique_continuation(sys8, grid8):
    # source supported in A: the solution cannot vanish on the complement
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.25})
    we = grid8.edge_cell_adjacency_weights(region.mask)
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
    ones = np.ones(grid8.n, dtype=bool)
    we = grid8.edge_cell_adjacency_weights(ones) * grid8.h ** 3
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
        s = rl.assemble(g, mat, om, check_resonance=False)
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
        s = rl.assemble(g, mat, om, check_resonance=False)
        fine_margins.append(resonance_guard(s))
    best = int(np.argmin(fine_margins))
    assert fine_margins[best] < 1e-4
    with pytest.raises(ResonantFrequencyError) as err:
        rl.assemble(g, mat, fine[best], resonance_threshold=1e-4)
    assert err.value.suggested_omega is not None


def test_margin_deterministic(grid8, vacuum8):
    a = rl.assemble(grid8, vacuum8, 2.0)
    b = rl.assemble(grid8, vacuum8, 2.0)
    assert a.margin == b.margin


def test_krylov_path_matches_direct(grid8, vacuum8, sys8):
    iterative = assemble(grid8, vacuum8, 2.0, direct_limit=0, check_resonance=False)
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


def test_krylov_nonconvergence_reports_history(grid8, vacuum8, monkeypatch):
    import rungelab.solver as solver_mod
    from rungelab.errors import NumericError

    monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 2)
    iterative = assemble(grid8, vacuum8, 2.0, direct_limit=0, check_resonance=False)
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(9)
    with pytest.raises(NumericError) as err:
        rl.solve_bvp(iterative, TangentialTrace(patch, rng_complex(rng, patch.n_dofs)))
    assert err.value.history is not None


def test_krylov_guard_stall_raises(grid8, vacuum8, monkeypatch):
    import rungelab.solver as solver_mod
    from rungelab.errors import NumericError

    monkeypatch.setattr(solver_mod, "KRYLOV_MAXITER", 2)
    with pytest.raises(NumericError) as err:
        assemble(grid8, vacuum8, 2.0, direct_limit=0)
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
    sys_ = assemble(grid8, vacuum8, 2.0, direct_limit=direct_limit, check_resonance=False)
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


def test_suggest_detuned_propagates_unexpected_errors(grid8, vacuum8, monkeypatch):
    import rungelab.solver as solver_mod
    from rungelab.errors import NumericError

    def failing_guard(exc):
        def guard(sys):
            raise exc
        return guard

    args = (grid8, vacuum8, 2.0, solver_mod.SOLVER_TOL, solver_mod.DIRECT_LIMIT)
    # a probe that fails numerically is skipped
    monkeypatch.setattr(solver_mod, "resonance_guard", failing_guard(NumericError("probe")))
    assert solver_mod._suggest_detuned(*args) is None
    # a programming error is not a failed probe
    monkeypatch.setattr(solver_mod, "resonance_guard", failing_guard(TypeError("bug")))
    with pytest.raises(TypeError):
        solver_mod._suggest_detuned(*args)


def test_krylov_meets_its_tolerance_on_random_data():
    # scipy's minres alone stops near 5e-6 true relative residual on this data
    g = rl.build_grid((16, 16, 16), 1.0 / 16)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    iterative = assemble(g, mat, 2.0, direct_limit=0, check_resonance=False)
    rng = np.random.default_rng(11)
    b = rng.standard_normal((iterative.dimension, 2))
    x = iterative.solve_interior(b)
    res = np.linalg.norm(iterative.L_II @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    assert res.max() <= iterative.solver_tol


def _guard_margins(g, mat, omega):
    """Resonance margins of the direct and of the Krylov path."""
    return [resonance_guard(assemble(g, mat, omega, check_resonance=False, direct_limit=limit))
            for limit in (10 ** 9, 0)]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_krylov_guard_agrees_with_direct(n):
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    direct, krylov = _guard_margins(g, mat, 2.0)
    assert abs(krylov - direct) <= 1e-6 * direct


def test_krylov_guard_agrees_with_direct_near_resonance():
    g, mat = _cavity6()
    fine = _fine_sweep_near_first_resonance(g, mat)
    margins = np.array([_guard_margins(g, mat, om) for om in fine])
    direct, krylov = margins.T
    assert np.all(np.abs(krylov - direct) <= 1e-6 * direct)
    resonant = fine[int(np.argmin(direct))]
    with pytest.raises(ResonantFrequencyError) as err:
        assemble(g, mat, resonant, direct_limit=0, resonance_threshold=1e-4)
    assert err.value.suggested_omega is not None


@pytest.mark.parametrize("n, direct", [(12, True), (16, False)])
def test_default_route(n, direct):
    # 12^3 carries the many-RHS reference studies; 16^3 is a verify level
    g = rl.build_grid((n, n, n), 1.0 / n)
    mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    assert assemble(g, mat, 2.0, check_resonance=False).direct is direct


def test_lift_error_carries_its_residual(sys8, grid8, monkeypatch):
    from rungelab.errors import NumericError

    monkeypatch.setattr(type(sys8), "solve_interior", lambda self, rhs: 2.0 * rhs)
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(12)
    with pytest.raises(NumericError) as err:
        rl.solve_bvp(sys8, TangentialTrace(patch, rng_complex(rng, patch.n_dofs)))
    assert err.value.history[0] > 10 * sys8.solver_tol
