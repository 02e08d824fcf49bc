import numpy as np
import pytest

import rungelab as rl
from rungelab.analysis import (build_norm_weights, fit_holder, fit_line, fit_log_modulus,
                               fit_power, hcurl_norm, lp_norm, r_squared)
from rungelab.errors import ConfigurationError, SizeError

from conftest import rng_complex


def _unit_Ex(grid):
    E = np.zeros(grid.n_edges, dtype=complex)
    E[grid.edge_components() == 0] = 1.0
    return E


def test_l2_constant_unit_field(grid8):
    region = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    assert lp_norm(grid8, region, 2, E=_unit_Ex(grid8)) == pytest.approx(1.0)


def test_linf_max_magnitude(grid8):
    region = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    assert lp_norm(grid8, region, np.inf, E=3.0 * _unit_Ex(grid8)) == pytest.approx(3.0)


def test_hcurl_constant_equals_l2(grid8):
    region = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    E = _unit_Ex(grid8)
    assert hcurl_norm(grid8, region, E=E) == pytest.approx(lp_norm(grid8, region, 2, E=E))


def test_norm_homogeneity(grid8):
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.3})
    rng = np.random.default_rng(0)
    E = rng_complex(rng, grid8.n_edges)
    H = rng_complex(rng, grid8.n_faces)
    c = complex(rng.standard_normal(), rng.standard_normal())
    for p in (1, 2, 4, np.inf):
        a = lp_norm(grid8, region, p, E=c * E, H=c * H)
        b = abs(c) * lp_norm(grid8, region, p, E=E, H=H)
        assert a == pytest.approx(b, rel=1e-12)
    assert hcurl_norm(grid8, region, E=c * E) == pytest.approx(
        abs(c) * hcurl_norm(grid8, region, E=E), rel=1e-12)


def test_lp_region_monotonicity(grid8):
    small = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.25})
    big = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.45})
    rng = np.random.default_rng(1)
    E = rng_complex(rng, grid8.n_edges)
    for p in (1, 2, 3):
        assert lp_norm(grid8, small, p, E=E) <= lp_norm(grid8, big, p, E=E)


def test_gram_single_face(grid8):
    patch = rl.boundary_patch(grid8, "x-", window=((0.0, 0.0), (0.125, 0.125)))
    w = build_norm_weights(patch)
    L = w.chol_V
    assert L.shape == (4, 4)
    assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0)
    assert vars(w).keys() == {"patch", "collar", "v_sel", "v_dofs", "chol_V"}


def _surrogate_gram(patch, sel):
    """G = M^{1/2} (I + M^{-1/2} S M^{-1/2})^{-1/2} M^{1/2}, S the unit-weight
    graph Laplacian linking the selected dofs of each patch face."""
    pos = {int(d): i for i, d in enumerate(sel)}
    S = np.zeros((len(sel), len(sel)))
    for face in patch.face_edges:
        members = [pos[int(d)] for d in face if int(d) in pos]
        for a in members:
            for b in members:
                if a != b:
                    S[a, b] -= 1.0
                    S[a, a] += 1.0
    m = np.sqrt(patch.edge_area[sel])
    evals, evecs = np.linalg.eigh(np.eye(len(sel)) + S / np.outer(m, m))
    return np.outer(m, m) * ((evecs / np.sqrt(evals)) @ evecs.T)


def test_gram_cholesky_reproduces(grid8):
    patch = rl.boundary_patch(grid8, "x-")
    rng = np.random.default_rng(3)
    for collar in ("include_rim", "exclude_rim"):
        w = build_norm_weights(patch, collar)
        G = _surrogate_gram(patch, w.v_sel)
        assert np.linalg.norm(w.chol_V @ w.chol_V.T - G) <= 1e-12 * np.linalg.norm(G)
        f, g = rng_complex(rng, w.n_v), rng_complex(rng, w.n_v)
        assert w.v_inner(f, g) == pytest.approx(np.conj(g) @ G @ f, rel=1e-12)
        assert w.v_norm(f) == pytest.approx(np.sqrt((np.conj(f) @ G @ f).real), rel=1e-12)


def test_surrogate_contracts_l2(grid8):
    # the mass-normalized smoothing spectrum sits at or above one, so the
    # surrogate norm never exceeds the plain boundary L2 norm
    patch = rl.boundary_patch(grid8, "x-")
    w = build_norm_weights(patch)
    mass = patch.edge_area[w.v_sel]
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng_complex(rng, w.n_v)
        assert w.v_norm(v) <= np.sqrt(np.sum(mass * np.abs(v) ** 2)) * (1 + 1e-12)
    const = np.ones(w.n_v, dtype=complex)
    assert w.v_norm(const) <= np.sqrt(mass.sum()) * (1 + 1e-12)


def test_gram_size_cap(grid8):
    patch = rl.boundary_patch(grid8, "x-")
    import rungelab.analysis as analysis
    old = analysis.DENSE_GRAM_LIMIT
    analysis.DENSE_GRAM_LIMIT = 10
    try:
        with pytest.raises(SizeError):
            build_norm_weights(patch)
    finally:
        analysis.DENSE_GRAM_LIMIT = old


def test_whole_boundary_gram_by_component(grid8):
    # without its rim the whole boundary's patch graph is six sides that share
    # no face: the factor is block diagonal, each block the side's own factor
    patch = rl.geometry.whole_boundary(grid8)
    w = build_norm_weights(patch, "exclude_rim")
    G = _surrogate_gram(patch, w.v_sel)
    assert np.linalg.norm(w.chol_V @ w.chol_V.T - G) <= 1e-12 * np.linalg.norm(G)
    assert np.array_equal(w.chol_V, np.tril(w.chol_V))
    side_of = np.full(w.n_v, -1)
    for i, side in enumerate(rl.geometry.SIDES):
        one = build_norm_weights(rl.boundary_patch(grid8, side), "exclude_rim")
        pos = np.searchsorted(w.v_dofs, one.v_dofs)
        assert np.array_equal(w.v_dofs[pos], one.v_dofs)
        assert np.array_equal(w.chol_V[np.ix_(pos, pos)], one.chol_V)
        side_of[pos] = i
    assert np.all(side_of >= 0) and np.bincount(side_of).tolist() == [112] * 6
    assert np.all(w.chol_V[side_of[:, None] != side_of[None, :]] == 0.0)


def test_gram_size_cap_is_per_component(grid8, monkeypatch):
    import rungelab.analysis as analysis
    patch = rl.geometry.whole_boundary(grid8)
    monkeypatch.setattr(analysis, "DENSE_GRAM_LIMIT", 112)
    assert build_norm_weights(patch, "exclude_rim").n_v == 672
    monkeypatch.setattr(analysis, "DENSE_GRAM_LIMIT", 100)
    with pytest.raises(SizeError, match="^patch component 0 of 6 carries 112 dofs;") as err:
        build_norm_weights(patch, "exclude_rim")
    assert (err.value.size, err.value.limit, err.value.component) == (112, 100, 0)
    # with its rim the whole boundary is one component
    with pytest.raises(SizeError, match="^patch component 0 of 1 carries 768 dofs;") as err:
        build_norm_weights(patch, "include_rim")
    assert (err.value.size, err.value.limit, err.value.component) == (768, 100, 0)


def test_fit_holder_degenerate_ones():
    fit = fit_holder([(1.0, 1.0, 1.0)] * 4)
    assert fit.params["C"] == pytest.approx(1.0)
    tau = fit.params["tau"]
    resid = 0.0 - tau * 0.0 - (1 - tau) * 0.0 - np.log(fit.params["C"])
    assert abs(resid) < 1e-12


def test_fit_holder_exact_loglinear():
    rng = np.random.default_rng(3)
    a1 = rng.uniform(0.1, 0.9, size=12)
    a3 = rng.uniform(1.5, 9.0, size=12)
    a2 = a1 ** 0.4 * a3 ** 0.6
    fit = fit_holder(np.stack([a1, a2, a3], axis=1))
    assert fit.params["tau"] == pytest.approx(0.4, abs=1e-6)
    assert fit.params["C"] == pytest.approx(1.0, abs=1e-6)


def test_fit_holder_certifies_bound():
    rng = np.random.default_rng(4)
    a1 = rng.uniform(0.1, 0.9, size=15)
    a3 = rng.uniform(1.5, 9.0, size=15)
    a2 = a1 ** 0.55 * a3 ** 0.45 * rng.uniform(0.5, 1.0, size=15)
    fit = fit_holder(np.stack([a1, a2, a3], axis=1))
    tau, C = fit.params["tau"], fit.params["C"]
    resid = np.log(a2) - tau * np.log(a1) - (1 - tau) * np.log(a3) - np.log(C)
    assert resid.max() <= 1e-12


def test_fit_holder_flags_adversarial():
    triples = [(1e-9, 1e7, 1.0), (1e-8, 2e7, 1.1), (1e-9, 3e7, 0.9)]
    fit = fit_holder(triples)
    assert fit.params["C"] > 1e6
    assert fit.flag == "no_bound_below_threshold"


def test_fit_holder_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        fit_holder([(1.0, -1.0, 2.0)] * 3)
    with pytest.raises(ConfigurationError):
        fit_holder([(1.0, 1.0, 1.0)] * 2)


def test_fit_log_modulus_recovers_planted():
    ts = np.array([0.3, 0.1, 0.03, 0.01, 0.003, 0.001])
    es = 1.0 * np.log(1.0 / ts) ** -2.0
    fit = fit_log_modulus(np.stack([ts, es], axis=1))
    assert fit.params["C"] == pytest.approx(1.0, abs=1e-6)
    assert fit.params["m"] == pytest.approx(2.0, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_log_modulus_flags_constant():
    ts = np.array([0.3, 0.1, 0.03, 0.01])
    fit = fit_log_modulus(np.stack([ts, np.full(4, 2.0)], axis=1))
    assert fit.params["m"] == pytest.approx(0.0, abs=1e-12)
    assert fit.flag == "non_decaying"


def test_fit_log_modulus_input_validation():
    with pytest.raises(ConfigurationError):
        fit_log_modulus([(0.3, 1.0), (0.1, 1.0), (0.03, 1.0)])
    with pytest.raises(ConfigurationError):
        fit_log_modulus([(1.3, 1.0), (0.1, 1.0), (0.03, 1.0), (0.01, 1.0)])


def test_fit_power_recovers_planted():
    js = np.arange(1, 9, dtype=float)
    es = 3.0 * js ** -1.5
    fit = fit_power(np.stack([js, es], axis=1))
    assert fit.params["C"] == pytest.approx(3.0, rel=1e-9)
    assert fit.params["delta"] == pytest.approx(1.5, rel=1e-9)


def test_fit_line_is_polyfit_and_r_squared():
    # the one least-squares line of every fit: the same numbers, bit for bit,
    # as the polyfit and r_squared calls it replaced
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 3.0, 9)
    y = 1.7 * x - 0.4 + 0.05 * rng.standard_normal(9)
    slope, intercept, r2 = fit_line(x, y)
    s, i = np.polyfit(x, y, 1)
    assert (slope, intercept, r2) == (s, i, r_squared(y, s * x + i))
    j, e = np.arange(1.0, 10.0), np.exp(y)
    s, i = np.polyfit(np.log(j), np.log(e), 1)
    fit = fit_power(np.stack([j, e], axis=1))
    assert (fit.params["delta"], fit.params["C"], fit.r2) == \
        (float(-s), float(np.exp(i)), r_squared(np.log(e), s * np.log(j) + i))
