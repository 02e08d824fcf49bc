import types

import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import (BadChecksumError, BadLengthError, BadProvenanceError,
                             ConfigurationError, GeometryError, NumericError)
from rungelab import runge_op, store
from rungelab.runge_op import (Expansion, alpha_for_j, apply_adjoint, assemble_restriction,
                               cached_restriction, load_operator, matrix_adjoint,
                               operator_provenance, save_operator, weighted_svd)
from rungelab.solver import TangentialTrace

from conftest import rng_complex, svd_structure


def test_zero_data_zero_column(small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    out = op.apply(np.zeros(gram.n_v, dtype=complex))
    assert np.abs(out).max() == 0.0


def test_matrix_matches_direct_solve(small_restriction, grid8):
    sys_, gram, volume, op, _ = small_restriction
    rng = np.random.default_rng(0)
    f = rng_complex(rng, gram.n_v)
    values = np.zeros(gram.patch.n_dofs, dtype=complex)
    values[gram.v_sel] = f
    fields = rl.solve_bvp(sys_, TangentialTrace(gram.patch, values))
    # complex data: the field is not real-structured, so stack it directly
    direct = np.concatenate([fields.E[volume.x_edge_idx], fields.H[volume.x_face_idx]])
    via_matrix = op.apply(f)
    assert np.linalg.norm(direct - via_matrix) <= 1e-10 * np.linalg.norm(direct)


def test_row_count_monotone_in_region(sys8, grid8):
    big = rl.carve_region(grid8, {"kind": "ball", "center": [0.4, 0.5, 0.5], "r": 0.3})
    small = rl.carve_region(grid8, {"kind": "ball", "center": [0.4, 0.5, 0.5], "r": 0.2})
    assert rl.VolumeWeights(small).n_x < rl.VolumeWeights(big).n_x


def test_restrict_rejects_off_phase_fields(small_restriction, grid8):
    # unit data give a real E and an imaginary H; anything else must not be
    # folded into the real matrix
    sys_, gram, volume, _, _ = small_restriction
    fields = rl.solve_bvp(sys_, gram.trace(np.eye(1, gram.n_v, 2)[0]))
    assert np.array_equal(volume.restrict(fields),
                          np.concatenate([fields.E[volume.x_edge_idx].real,
                                          fields.H[volume.x_face_idx].imag]))
    e_imag = fields.E.copy()
    e_imag[volume.x_edge_idx[4]] += 1e-3j
    h_real = fields.H.copy()
    h_real[volume.x_face_idx[-1]] += 2e-3
    for bad, size in (((e_imag, fields.H), 1e-3), ((fields.E, h_real), 2e-3)):
        with pytest.raises(NumericError) as err:
            volume.restrict(rl.FieldPair(grid8, *bad))
        assert err.value.history == [pytest.approx(size)]


def test_restriction_requires_geometry(sys8, grid8):
    patch = rl.boundary_patch(grid8, "x-")
    slab = rl.carve_region(grid8, {"kind": "box", "lo": [0.4, 0, 0], "hi": [0.6, 1, 1]})
    gram = rl.build_norm_weights(patch)
    with pytest.raises(GeometryError):
        assemble_restriction(sys8, gram, rl.VolumeWeights(slab))


def test_adjoint_identity(small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        f = rng_complex(rng, gram.n_v)
        F = rng_complex(rng, volume.n_x)
        lhs = volume.x_inner(op.apply(f), F)
        rhs = gram.v_inner(f, apply_adjoint(sys_, F, gram, volume))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-8


def test_adjoint_matches_matrix_oracle(small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    rng = np.random.default_rng(2)
    for _ in range(5):
        F = rng_complex(rng, volume.n_x)
        pde = apply_adjoint(sys_, F, gram, volume)
        mat = matrix_adjoint(op, F)
        assert np.linalg.norm(pde - mat) <= 1e-8 * np.linalg.norm(mat)


def test_adjoint_zero(small_restriction):
    sys_, gram, volume, _, _ = small_restriction
    out = apply_adjoint(sys_, np.zeros(volume.n_x, dtype=complex), gram, volume)
    assert np.abs(out).max() == 0.0


def test_adjoint_of_column_nonzero(small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    F = op.matrix[:, 3]
    out = apply_adjoint(sys_, F, gram, volume)
    assert np.linalg.norm(out) > 1e-12


def _stub_weights(n_v, n_x, n_e=None):
    """Identity Grams; the first ``n_e`` rows (all by default) are E rows."""
    w = types.SimpleNamespace()
    w.chol_V = np.eye(n_v)
    w.x_weights = lambda: np.ones(n_x)
    w.x_edge_idx = np.arange(n_x if n_e is None else n_e)
    w.n_v = n_v
    w.n_x = n_x
    w.x_norm = lambda u: float(np.linalg.norm(u))
    w.v_norm = lambda f: float(np.linalg.norm(f))
    return w


def test_svd_identity_grams_diagonal_matrix():
    from rungelab.runge_op import RestrictionOperator

    w = _stub_weights(2, 2)
    op = RestrictionOperator(np.diag([2.0, 1.0]), w, w, 0)
    svd = weighted_svd(op)
    assert np.allclose(svd.sigma, [2.0, 1.0])
    phi = svd.right(np.eye(2))
    psi = op.apply(phi) / svd.sigma
    assert np.allclose(np.abs(phi), np.eye(2))
    assert np.allclose(np.abs(psi), np.eye(2))
    # Psi_k = A phi_k / sigma_k expands to e_k
    for k in range(2):
        ex = svd.expand(psi[:, k])
        assert ex.coords == pytest.approx(np.eye(2)[k], abs=1e-15)
        assert ex.out2 <= 1e-30


def test_svd_rank_floor_drops_null_directions():
    from rungelab.runge_op import RestrictionOperator

    # R = Q diag(3, 2, 1, 0, 0) P^T: two exact null directions, which the
    # SVD returns at the rounding level
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 5)))
    P, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    R = (Q * [3.0, 2.0, 1.0, 0.0, 0.0]) @ P.T
    w = _stub_weights(5, 7, n_e=4)
    svd = weighted_svd(RestrictionOperator(R, w, w, 0))
    assert svd.rank == 3
    assert svd.sigma == pytest.approx([3.0, 2.0, 1.0], rel=1e-12)
    assert np.linalg.norm(np.linalg.svd(R, compute_uv=False)[3:]) > 0
    # a target outside the range keeps its whole norm out of span
    null_target = Q[:, 3] * np.where(np.arange(7) < 4, 1.0, 1j)
    psi_0 = RestrictionOperator(R, w, w, 0).apply(svd.right(np.eye(3))[:, 0]) / svd.sigma[0]
    ex = svd.expand(null_target + psi_0)
    assert ex.coords == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert np.sqrt(ex.out2) == pytest.approx(1.0, rel=1e-12)
    # the null directions' rounding-level modes count as out of span
    assert np.sqrt(svd.expand(psi_0).out2) <= 1e-14


def test_svd_matches_complex_reference(small_restriction):
    # the real path against a dense complex SVD of A = diag(I, iI) R,
    # truncated by the same rule
    _, gram, volume, op, svd = small_restriction
    A = op.complex_matrix()
    sqrt_x = np.sqrt(volume.x_weights())
    B = sqrt_x[:, None] * np.linalg.solve(gram.chol_V, A.conj().T).conj().T
    U, S, _ = np.linalg.svd(B, full_matrices=False)
    keep = S > max(B.shape) * np.finfo(float).eps * S[0]
    assert svd.rank == keep.sum() < gram.n_v
    assert np.abs(svd.sigma / S[keep] - 1).max() <= 1e-10
    rng = np.random.default_rng(10)
    W = rng_complex(rng, volume.n_x)
    ref = U[:, keep] / sqrt_x[:, None]
    ref_resid = volume.x_norm(W - ref @ (ref.conj().T @ (volume.x_weights() * W)))
    resid = np.sqrt(svd.expand(W).out2)
    assert resid == pytest.approx(ref_resid, rel=1e-8)


def test_svd_structure(small_restriction):
    _, gram, volume, op, svd = small_restriction
    assert svd_structure(gram, volume, op, svd) <= 1e-10


def _dense_reference(R, w, rng):
    """weighted_svd and SvdBundle.expand of R under the Grams of ``w``, against
    numpy's dense SVD of the whitened B = W_X^{1/2} R L_V^{-T}."""
    from rungelab.runge_op import RestrictionOperator

    op = RestrictionOperator(R, w, w, 0)
    svd = weighted_svd(op)
    sqrt_x = np.sqrt(w.x_weights())
    B = sqrt_x[:, None] * np.linalg.solve(w.chol_V, R.T).T
    U, S, Vt = np.linalg.svd(B, full_matrices=False)
    rank = int(np.count_nonzero(S > max(B.shape) * np.finfo(float).eps * S[0]))
    assert svd.rank == rank
    assert np.abs(svd.sigma - S[:rank]).max() <= 1e-12 * S[0]
    # singular vectors are fixed up to sign; V = L_V^T phi gives each sign
    V = w.chol_V.T @ svd.right(np.eye(rank))
    sign = np.sign(np.sum(V * Vt[:rank].T, axis=0))
    assert np.abs(V - Vt[:rank].T * sign).max() <= 1e-10
    W = rng_complex(rng, len(R))
    white = op.phase().conj() * sqrt_x * W
    coords = U[:, :rank].T @ white
    ex = svd.expand(W)
    assert np.abs(ex.coords - sign * coords).max() <= 1e-10 * np.linalg.norm(white)
    assert ex.out2 == pytest.approx(np.linalg.norm(white - U[:, :rank] @ coords) ** 2,
                                    rel=1e-8)
    return rank


def _random_grams(rng, n_v, n_x):
    """Stub weights with a random well-conditioned trace Gram, G_V = I + X X^T / n_v,
    random volume weights, and E rows first, H rows last."""
    w = _stub_weights(n_v, n_x, n_e=n_x // 2)
    X = rng.standard_normal((n_v, n_v))
    w.chol_V = np.linalg.cholesky(np.eye(n_v) + X @ X.T / n_v)
    weights = rng.uniform(0.1, 1.0, n_x)
    w.x_weights = lambda: weights
    return w


def test_svd_matches_dense_reference_tall():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((120, 60))
    assert _dense_reference(R, _random_grams(rng, 60, 120), rng) == 60


def test_svd_matches_dense_reference_wide_rank_deficient():
    # rank 48 of 90 x 180, the shape and rank of the localization reference's M
    rng = np.random.default_rng(12)
    R = rng.standard_normal((90, 48)) @ rng.standard_normal((48, 180))
    assert _dense_reference(R, _random_grams(rng, 180, 90), rng) == 48


def test_svd_compact_decay(small_restriction):
    _, _, _, _, svd = small_restriction
    assert svd.sigma[-1] / svd.sigma[0] < 1e-3


def test_expand_target_basis_vector(small_restriction):
    _, _, _, op, svd = small_restriction
    ex = svd.expand(op.apply(svd.right(np.eye(svd.rank)[:, :1])[:, 0]) / svd.sigma[0])
    assert ex.coords[0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(ex.coords[1:]).max() <= 1e-10
    assert np.sqrt(ex.out2) <= 1e-10


def test_expand_target_parseval(small_restriction):
    _, _, volume, _, svd = small_restriction
    rng = np.random.default_rng(3)
    W = rng_complex(rng, volume.n_x)
    ex = svd.expand(W)
    total = np.sum(np.abs(ex.coords) ** 2) + ex.out2
    assert total == pytest.approx(volume.x_norm(W) ** 2, rel=1e-10)


def test_expand_block_matches_columns(small_restriction):
    _, _, volume, _, svd = small_restriction
    rng = np.random.default_rng(4)
    W = np.column_stack([rng_complex(rng, volume.n_x) for _ in range(3)])
    ex = svd.expand(W)
    assert ex.coords.shape == (svd.rank, 3) and ex.out2.shape == (3,)
    for k in range(3):
        col = svd.expand(W[:, k])
        assert np.abs(ex.coords[:, k] - col.coords).max() <= 1e-14 * np.linalg.norm(col.coords)
        assert ex.out2[k] == pytest.approx(col.out2, rel=1e-12)
        assert np.abs(ex.truncate(svd.sigma[5])[0][:, k]
                      - col.truncate(svd.sigma[5])[0]).max() <= 1e-12


def test_truncate_keeps_ties():
    ex = Expansion(np.array([2.0, 1.0, 0.5]), lambda y: y, np.ones(3, dtype=complex), 0.0)
    _, tail, kept = ex.truncate(0.8)
    assert kept == 2
    assert tail == pytest.approx(1.0)
    assert ex.truncate(1.0)[2] == 2  # sigma_k >= alpha keeps the tie at 1.0

    data, tail, kept = ex.truncate(3.0)
    assert kept == 0
    assert np.abs(data).max() == 0.0
    assert tail == pytest.approx(np.sqrt(3.0))
    with pytest.raises(ConfigurationError):
        ex.truncate(0.0)


def test_truncate_over_an_alpha_array_matches_single_calls(small_restriction):
    # one block of ladder steps: the tails and counts of one call per alpha,
    # the data to rounding; ties and alpha above sigma_0 included
    _, _, volume, _, svd = small_restriction
    ex = svd.expand(rng_complex(np.random.default_rng(8), volume.n_x))
    alphas = np.array([2 * svd.sigma[0], svd.sigma[0], svd.sigma[3], 0.5 * svd.sigma[7],
                       svd.sigma[-1], 1e-3 * svd.sigma[-1]])
    data, tails, kept = ex.truncate(alphas)
    assert data.shape == (svd.gram.n_v, len(alphas))
    assert tails.shape == kept.shape == alphas.shape
    for i, alpha in enumerate(alphas):
        one, tail, k = ex.truncate(alpha)
        assert tails[i] == tail and kept[i] == k
        assert np.abs(data[:, i] - one).max() <= 1e-14 * max(np.abs(one).max(), 1.0)
    assert kept[0] == 0 and np.abs(data[:, 0]).max() == 0.0 and kept[-1] == svd.rank


def test_truncate_rejects_a_bad_alpha_array(small_restriction):
    _, _, volume, _, svd = small_restriction
    rng = np.random.default_rng(9)
    ex = svd.expand(rng_complex(rng, volume.n_x))
    for bad in (np.array([1e-3, 0.0]), np.array([[1e-3]])):
        with pytest.raises(ConfigurationError):
            ex.truncate(bad)
    block = svd.expand(np.column_stack([rng_complex(rng, volume.n_x) for _ in range(2)]))
    with pytest.raises(ConfigurationError, match="single datum"):
        block.truncate(np.array([1e-3]))


def test_truncate_termwise_bound(small_restriction):
    _, gram, volume, _, svd = small_restriction
    rng = np.random.default_rng(4)
    W = rng_complex(rng, volume.n_x)
    ex = svd.expand(W)
    for alpha in (svd.sigma[0], svd.sigma[len(svd.sigma) // 2], svd.sigma[-1]):
        bound = np.sqrt(np.sum(np.abs(ex.coords) ** 2)) / alpha
        assert gram.v_norm(ex.truncate(alpha)[0]) <= bound * (1 + 1e-12)


def test_truncation_error_monotone(small_restriction):
    _, _, volume, op, svd = small_restriction
    rng = np.random.default_rng(5)
    W = rng_complex(rng, volume.n_x)
    ex = svd.expand(W)
    alphas = np.sort(svd.sigma)[::-1]
    prev = None
    for alpha in alphas[::5]:
        data, tail, _ = ex.truncate(alpha)
        err = float(np.hypot(tail, np.sqrt(ex.out2)))
        if prev is not None:
            assert err <= prev * (1 + 1e-12)
        # the matrix realization reproduces the tail error above the fp floor,
        # where c_k/sigma_k amplification stays representable
        if alpha >= 1e-6 * svd.sigma[0]:
            realized = volume.x_norm(W - op.apply(data))
            assert realized == pytest.approx(err, rel=1e-6, abs=1e-10 * volume.x_norm(W))
        prev = err


def test_runge_expansion_runs_the_discrepancy_bisection(small_restriction):
    # the Cauchy ridge filter and Morozov bisection apply to a Runge target
    _, _, volume, _, svd = small_restriction
    rng = np.random.default_rng(6)
    ex = svd.expand(rng_complex(rng, volume.n_x))
    lo, hi = ex.ridge_misfit(1e-14), ex.ridge_misfit(1e6)
    assert lo < hi
    for target in (lo + 0.25 * (hi - lo), np.sqrt(lo * hi), hi - 0.25 * (hi - lo)):
        assert ex.ridge_misfit(ex.discrepancy_lambda(target)) == pytest.approx(target, rel=1e-8)
    full = ex.truncate(svd.sigma[-1])[0]
    assert np.linalg.norm(ex.ridge(0.0) - full) <= 1e-10 * np.linalg.norm(full)


def test_discrepancy_bisection_stops_when_no_bracket_moves():
    rng = np.random.default_rng(11)
    coords = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    ex = Expansion(np.logspace(0, -8, 12), None, coords, np.full(3, 1e-6))
    target = np.sqrt(ex.ridge_misfit(1e-14) * ex.ridge_misfit(1e6))
    # the full 80-step bisection, and the first step that moves no bracket
    llo, lhi = np.full(3, np.log10(1e-14)), np.full(3, np.log10(1e6))
    still = None
    for step in range(1, 81):
        mid = 0.5 * (llo + lhi)
        below = ex.ridge_misfit(10.0 ** mid) < target
        new_lo, new_hi = np.where(below, mid, llo), np.where(below, lhi, mid)
        if still is None and np.array_equal(new_lo, llo) and np.array_equal(new_hi, lhi):
            still = step
        llo, lhi = new_lo, new_hi
    assert still is not None and still < 80
    calls = []
    misfit = ex.ridge_misfit
    ex.ridge_misfit = lambda lam: calls.append(lam) or misfit(lam)
    lam = ex.discrepancy_lambda(target)
    assert np.array_equal(lam, 10.0 ** (0.5 * (llo + lhi)))
    # the bisection up to that step, then the two clamp checks
    assert len(calls) == still + 2


def test_alpha_for_j_inversion():
    # theta -> 0 limit of the inversion: alpha = C e^{-j^{2/m}}
    a = alpha_for_j(1, 1.0, 1e-12, 2.0)
    assert a == pytest.approx(np.exp(-1.0), abs=1e-6)
    prev = np.inf
    for j in range(1, 12):
        cur = alpha_for_j(j, 2.0, 0.5, 2.0)
        assert cur < prev
        prev = cur


def test_alpha_for_j_roundtrip():
    C, theta, m = 1.7, 2.0 / 3.0, 3.0
    for j in (1, 2, 5, 9):
        alpha = alpha_for_j(j, C, theta, m)
        back = np.log(C / alpha ** (1 - theta)) ** (-m / 2.0)
        assert back == pytest.approx(1.0 / j, rel=1e-12)


def test_alpha_for_j_validation():
    with pytest.raises(ConfigurationError):
        alpha_for_j(1, 1.0, 1.5, 2.0)


def test_operator_cache_roundtrip(tmp_path, small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    save_operator(op, path, rl.resonance_guard(sys_))
    back, margin = load_operator(path, gram.patch, gram.collar, volume, sys_)
    assert np.array_equal(back.matrix, op.matrix)
    # the margin comes back bit for bit
    assert margin == rl.resonance_guard(sys_)


def test_operator_cache_detects_truncation(tmp_path, small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    save_operator(op, path, rl.resonance_guard(sys_))
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(BadLengthError):
        load_operator(path, gram.patch, gram.collar, volume, sys_)


def test_operator_cache_detects_corruption(tmp_path, small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    save_operator(op, path, rl.resonance_guard(sys_))
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        load_operator(path, gram.patch, gram.collar, volume, sys_)


def test_operator_cache_provenance(tmp_path, small_restriction, grid8):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    save_operator(op, path, rl.resonance_guard(sys_))
    other_mat = rl.make_material(grid8, {"kind": "constant", "eps": 2.25, "mu": 1.0})
    other_sys = rl.assemble(grid8, other_mat, 2.0)
    with pytest.raises(BadProvenanceError):
        load_operator(path, gram.patch, gram.collar, volume, other_sys)


def test_operator_provenance_names_the_solver(tmp_path, small_restriction, grid8, vacuum8):
    # the path that solves the columns and its tolerance are keys: a smooth
    # medium by LU, by MINRES and by LU at another tolerance
    sys_, gram, volume, op, _ = small_restriction
    smooth = rl.make_material(grid8, {"kind": "smooth", "seed": 3, "amplitude": 0.3})
    lu, minres = (rl.assemble(grid8, smooth, 2.0, direct_limit=limit)
                  for limit in (rl.solver.DIRECT_LIMIT, 0))
    loose = rl.assemble(grid8, smooth, 2.0, solver_tol=1e-8)
    assert lu.direct and not minres.direct and not lu.constant
    provs = {operator_provenance(s, gram.patch, gram.collar, volume)
             for s in (lu, minres, loose)}
    assert len(provs) == 3
    # a constant medium takes the transform on either path, but the path
    # fixes the guard whose margin the entry holds: one key per path
    path = tmp_path / "op.rgfo"
    save_operator(op, path, rl.resonance_guard(sys_))
    krylov = rl.assemble(grid8, vacuum8, 2.0, direct_limit=0)
    assert sys_.direct and not krylov.direct and krylov.constant
    for other in (krylov, rl.assemble(grid8, vacuum8, 2.0, solver_tol=1e-8)):
        with pytest.raises(BadProvenanceError):
            load_operator(path, gram.patch, gram.collar, volume, other)


def _provenance(sys_, region, patch):
    return operator_provenance(sys_, patch, "exclude_rim", rl.VolumeWeights(region))


def test_operator_provenance_tells_shifted_regions_apart():
    # one cell of shift in x on the 12^3 reference grid moves 36 cells but
    # keeps the cell count and the byte sum of the packed mask
    g = rl.build_grid((12, 12, 12), 1.0 / 12)
    sys_ = rl.assemble(g, rl.make_material(g, {"kind": "constant"}), 2.0)
    patch = rl.boundary_patch(g, "x-")
    a, b = (rl.carve_region(g, {"kind": "ball", "center": [x, 0.47, 0.52], "r": 0.2})
            for x in (0.38, 0.38 + g.h))
    assert a.cell_count() == b.cell_count() and (a.mask != b.mask).sum() == 36
    assert a.key() != b.key()
    assert _provenance(sys_, a, patch) != _provenance(sys_, b, patch)


def test_operator_provenance_follows_the_mask_not_the_shape(sys8, grid8):
    # cell centers sit at 0.0625 + 0.125 k: both boxes hold the same 4^3 cells
    a, b = (rl.carve_region(grid8, {"kind": "box", "lo": [lo] * 3, "hi": [hi] * 3})
            for lo, hi in ((0.3, 0.7), (0.26, 0.74)))
    assert a.cell_count() == 64 and np.array_equal(a.mask, b.mask)
    patch = rl.boundary_patch(grid8, "x-")
    assert _provenance(sys8, a, patch) == _provenance(sys8, b, patch)


def test_operator_provenance_tells_mirrored_materials_apart(grid8):
    # eps ramping 1 -> 2 and 2 -> 1 share every sum and maximum
    mats = [rl.make_material(grid8, {"kind": "layered", "axis": 0, "breakpoints": [0.5],
                                     "tensors": t, "smoothing": 0.25})
            for t in ([1.0, 2.0], [2.0, 1.0])]
    assert mats[0].eps.sum() == mats[1].eps.sum()
    assert mats[0].key() != mats[1].key()
    patch = rl.boundary_patch(grid8, "x-")
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.4, 0.5, 0.5], "r": 0.22})
    provs = [_provenance(rl.assemble(grid8, m, 2.0), region, patch)
             for m in mats]
    assert provs[0] != provs[1]


def test_reference_operator_provenance_is_pinned(reference_runge_scene):
    # the key names the cache entry: a change here orphans every operator
    # cached from configs/runge_reference.json
    cfg, scene, gram, volume, op, _, _ = reference_runge_scene
    assert op.provenance == 0x844f5d97bd82d79b
    assert operator_provenance(scene.system, gram.patch, gram.collar, volume) == op.provenance


def test_patch_key_names_face_edges(sys8, grid8):
    # the trace Gram reads the face incidence, and an entry holds its factor:
    # two patches that differ only there must key different entries
    patch = rl.boundary_patch(grid8, "x-")
    other = rl.BoundaryPatch(grid8, patch.sides, patch.edge_dofs, patch.edge_area,
                             patch.rim_mask, patch.face_edges[::-1].copy(),
                             patch.inward_faces)
    assert not np.array_equal(other.face_edges, patch.face_edges)
    assert other.key()[:3] == patch.key()[:3]
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.4, 0.5, 0.5], "r": 0.22})
    volume = rl.VolumeWeights(region)
    assert (operator_provenance(sys8, patch, "exclude_rim", volume)
            != operator_provenance(sys8, other, "exclude_rim", volume))


def test_cached_restriction_reads_the_gram_factor(tmp_path, small_restriction, monkeypatch):
    # a cold call builds the Gram once and stores its factor; a warm call
    # builds none and whitens with the cold factor's exact bits
    sys_, gram, volume, op, _ = small_restriction
    built = []
    build = runge_op.build_norm_weights
    monkeypatch.setattr(runge_op, "build_norm_weights",
                        lambda *a: built.append(a) or build(*a))
    cold = cached_restriction(sys_, gram.patch, gram.collar, volume, str(tmp_path), 1e-6)
    assert len(built) == 1
    warm = cached_restriction(sys_, gram.patch, gram.collar, volume, str(tmp_path), 1e-6)
    assert len(built) == 1
    assert warm.gram is not cold.gram
    assert warm.gram.chol_V.tobytes() == cold.gram.chol_V.tobytes() == gram.chol_V.tobytes()
    assert np.array_equal(warm.gram.v_dofs, gram.v_dofs)
    assert warm.matrix.tobytes() == cold.matrix.tobytes() == op.matrix.tobytes()
    assert warm.provenance == cold.provenance == op.provenance


def test_stored_gram_factor_of_the_wrong_shape_fails(tmp_path, small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    n = gram.n_v
    for chol in (gram.chol_V[:-1, :-1], gram.chol_V[:, :-1]):
        store.write_envelope(path, op.provenance,
                             *store.pack_operator(op.matrix, chol, op.factors, 0.5))
        with pytest.raises(ConfigurationError,
                           match=rf"factor shape \({chol.shape[0]}, {chol.shape[1]}\) "
                                 rf"!= \({n}, {n}\)"):
            load_operator(path, gram.patch, gram.collar, volume, sys_)


def test_stored_factor_of_the_wrong_shape_fails(tmp_path, small_restriction):
    sys_, gram, volume, op, _ = small_restriction
    path = tmp_path / "op.rgfo"
    for i, name in enumerate(store.FACTORS):
        factors = list(op.factors)
        factors[i] = factors[i][:, :-1]
        store.write_envelope(path, op.provenance,
                             *store.pack_operator(op.matrix, gram.chol_V, factors, 0.5))
        (a, b), (c, d) = factors[i].shape, op.factors[i].shape
        with pytest.raises(ConfigurationError,
                           match=rf"cached factor {name} shape \({a}, {b}\) != \({c}, {d}\)"):
            load_operator(path, gram.patch, gram.collar, volume, sys_)


def test_warm_weighted_svd_runs_no_reduction(tmp_path, small_restriction, monkeypatch):
    # a hit finishes the SVD from the stored factors: no dtpqrt and no
    # dgebrd, and every result bit for bit the cold run's
    sys_, gram, volume, _, _ = small_restriction
    called = []
    for name in ("_lapack", "_lapack_work"):
        monkeypatch.setattr(runge_op, name, lambda routine, *a, call=getattr(runge_op, name),
                            **k: called.append(routine) or call(routine, *a, **k))

    def bundle():
        return weighted_svd(cached_restriction(sys_, gram.patch, gram.collar, volume,
                                               str(tmp_path), 1e-6))

    cold = bundle()
    assert {"dtpqrt", "dgebrd"} <= set(called)
    called.clear()
    warm = bundle()
    rng = np.random.default_rng(5)
    W = rng.standard_normal((volume.n_x, 3)) + 1j * rng.standard_normal((volume.n_x, 3))
    y = rng.standard_normal((cold.rank, 2))
    assert warm.rank == cold.rank and warm.sigma.tobytes() == cold.sigma.tobytes()
    for a, b in ((cold.expand(W), warm.expand(W)), (cold.expand(W[:, 0]), warm.expand(W[:, 0]))):
        assert a.coords.tobytes() == b.coords.tobytes()
        assert np.asarray(a.out2).tobytes() == np.asarray(b.out2).tobytes()
    assert warm.right(y).tobytes() == cold.right(y).tobytes()
    assert called and not {"dtpqrt", "dgebrd"} & set(called)
