import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import MaterialError
from rungelab.materials import lipschitz_bound, make_material


def test_constant_identity(grid8):
    mat = make_material(grid8, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    assert mat.c == 1.0
    assert mat.M == 1.0
    eye = np.broadcast_to(np.eye(3), mat.eps.shape)
    assert np.array_equal(mat.eps, eye) and np.array_equal(mat.mu, eye)


def test_layered_jump_requires_smoothing(grid8):
    spec = {"kind": "layered", "axis": 0, "breakpoints": [0.5], "tensors": [1.0, 4.0]}
    with pytest.raises(MaterialError):
        make_material(grid8, dict(spec, smoothing=0.0))
    mat = make_material(grid8, dict(spec, smoothing=2 * grid8.h))
    assert mat.c > 0
    # beyond the ramp the layers are flat at their nominal values
    assert np.isclose(mat.eps[0, 0, 0, 0, 0], 1.0)
    assert np.isclose(mat.eps[-1, 0, 0, 0, 0], 4.0)


def test_smooth_deterministic(grid8):
    a = make_material(grid8, {"kind": "smooth", "seed": 7})
    b = make_material(grid8, {"kind": "smooth", "seed": 7})
    assert np.array_equal(a.eps, b.eps)
    assert np.array_equal(a.mu, b.mu)
    c = make_material(grid8, {"kind": "smooth", "seed": 8})
    assert not np.array_equal(a.eps, c.eps)


def _assert_ellipticity_constant(mat):
    # c is the largest constant with every eps and mu cell eigenvalue inside [c, 1/c]
    ev = np.concatenate([np.linalg.eigvalsh(mat.eps).ravel(),
                         np.linalg.eigvalsh(mat.mu).ravel()])
    lo, hi = ev.min(), ev.max()
    assert lo >= mat.c * (1 - 1e-12) and hi <= (1 + 1e-12) / mat.c
    assert mat.c == pytest.approx(min(lo, 1.0 / hi), rel=1e-12)


def test_ellipticity_examples(grid8):
    ident = make_material(grid8, {"kind": "constant", "eps": 1.0, "mu": 1.0})
    assert ident.c >= 0.5

    # the largest eigenvalue 3 of eps leaves c = 1/3 < 0.5
    stretched = make_material(grid8, {"kind": "constant", "eps": [3.0, 1.0, 1.0], "mu": 1.0})
    assert stretched.c == pytest.approx(1.0 / 3.0) and stretched.c < 0.5

    # a small mu sets c just as a small eps would
    soft = make_material(grid8, {"kind": "constant", "eps": 1.0, "mu": 0.25})
    assert soft.c == pytest.approx(0.25)

    banded = make_material(grid8, {"kind": "constant", "eps": [0.5, 1.0, 2.0], "mu": 1.0})
    assert banded.c == pytest.approx(0.5)
    for mat in (ident, stretched, soft, banded):
        _assert_ellipticity_constant(mat)


def test_rejects_nonsymmetric(grid8):
    bad = np.broadcast_to(np.array([[1.0, 0.2, 0], [0, 1, 0], [0, 0, 1]]),
                          grid8.n + (3, 3))
    with pytest.raises(MaterialError):
        rl.MaterialField(grid8, bad, np.broadcast_to(np.eye(3), grid8.n + (3, 3)).copy())


def test_rejects_nonpositive(grid8):
    with pytest.raises(MaterialError):
        make_material(grid8, {"kind": "constant", "eps": [-1.0, 1.0, 1.0], "mu": 1.0})


def _uniform_but_last_cell(grid, tensor):
    """Vacuum with ``tensor`` as eps in the last cell only."""
    eps = np.broadcast_to(np.eye(3), grid.n + (3, 3)).copy()
    eps[-1, -1, -1] = tensor
    return eps, np.broadcast_to(np.eye(3), grid.n + (3, 3)).copy()


def test_rejects_nonsymmetric_cell_in_uniform_medium(grid8):
    eps, mu = _uniform_but_last_cell(grid8, [[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(MaterialError, match="not symmetric"):
        rl.MaterialField(grid8, eps, mu)


def test_rejects_nonpositive_cell_in_uniform_medium(grid8):
    eps, mu = _uniform_but_last_cell(grid8, np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(MaterialError, match="nonpositive"):
        rl.MaterialField(grid8, eps, mu)


def test_one_ulp_makes_a_medium_nonuniform(grid8):
    up = np.nextafter(1.0, 2.0)
    eps, mu = _uniform_but_last_cell(grid8, np.diag([up, 1.0, 1.0]))
    mat = rl.MaterialField(grid8, eps, mu)
    assert not mat.uniform
    # c and M see the last cell, which the first cell alone would miss
    assert mat.c == 1.0 / up < 1.0
    assert mat.M == up > 1.0
    assert make_material(grid8, {"kind": "constant", "eps": 1.0, "mu": 1.0}).uniform


def _linear_eps_field(grid):
    centers = grid.cell_centers()[:, 0].reshape(grid.n)
    eps = np.zeros(grid.n + (3, 3))
    for d in range(3):
        eps[..., d, d] = 1.0 + 0.5 * centers
    mu = np.broadcast_to(np.eye(3), grid.n + (3, 3)).copy()
    return rl.MaterialField(grid, eps, mu)


def test_lipschitz_linear_field(grid8):
    mat = _linear_eps_field(grid8)
    # independent oracle: brute-force discrete sup and difference quotient
    xs = grid8.cell_centers()[:, 0].reshape(grid8.n)
    vals = 1.0 + 0.5 * xs
    sup = vals.max()
    quot = np.abs(np.diff(vals, axis=0)).max() / grid8.h
    assert lipschitz_bound(mat) == pytest.approx(max(sup, quot, 1.0))
    assert lipschitz_bound(mat) == pytest.approx(1.5 - 0.25 * grid8.h)


def test_lipschitz_refinement_stability():
    vals = []
    for n in (8, 16):
        g = rl.build_grid((n, n, n), 1.0 / n)
        spec = {"kind": "smooth", "seed": 3, "amplitude": 0.3, "modes": 2}
        vals.append(make_material(g, spec).M)
    # smooth field: the discrete bound moves by O(h) under refinement
    assert abs(vals[1] - vals[0]) < 0.5


def test_lipschitz_translation_invariance():
    a = rl.build_grid((8, 8, 8), 0.125, origin=(0, 0, 0))
    b = rl.build_grid((8, 8, 8), 0.125, origin=(5.0, -2.0, 1.0))
    spec = {"kind": "constant", "eps": [1.0, 2.0, 0.7], "mu": 1.5}
    assert make_material(a, spec).M == make_material(b, spec).M


@pytest.mark.parametrize("seed", range(0, 100, 7))
def test_smooth_fields_respect_bounds(seed):
    g = rl.build_grid((6, 6, 6), 1.0 / 6)
    mat = make_material(g, {"kind": "smooth", "seed": seed})
    _assert_ellipticity_constant(mat)
    assert mat.c >= 0.4
    assert np.isfinite(mat.M)


def test_smooth_many_seeds_ellipticity():
    g = rl.build_grid((4, 4, 4), 0.25)
    cs = []
    for seed in range(100):
        mat = make_material(g, {"kind": "smooth", "seed": seed, "amplitude": 0.4})
        _assert_ellipticity_constant(mat)
        cs.append(mat.c)
    assert min(cs) > 0.3
