import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import ConfigurationError, GeometryError
from rungelab.oracle import convergence_study, sample_on_grid


def test_plane_wave_H_direction():
    # k x p / (omega mu0) with k=(2,0,0), p=(0,1,0), omega=2 gives H = (0,0,1) e^{2ix}
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.1, 0.9]])
    H = sol.H(pts)
    expect = np.exp(2j * pts[:, 0])[:, None] * np.array([0.0, 0.0, 1.0])
    assert np.allclose(H, expect, atol=1e-14)


def test_plane_wave_rejects_longitudinal():
    with pytest.raises(ConfigurationError):
        rl.plane_wave([2.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0)


def test_plane_wave_rejects_bad_dispersion():
    with pytest.raises(ConfigurationError):
        rl.plane_wave([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)


def test_plane_wave_energy_ratio():
    k = np.array([1.2, 1.6, 0.0])
    omega = np.linalg.norm(k)
    sol = rl.plane_wave(k, [0.0, 0.0, 1.0], omega)
    pts = np.random.default_rng(0).uniform(size=(20, 3))
    ratio = np.linalg.norm(sol.H(pts), axis=1) / np.linalg.norm(sol.E(pts), axis=1)
    assert np.allclose(ratio, np.linalg.norm(k) / omega)


def test_dipole_zero_moment(grid8):
    sol = rl.dipole_field([2.0, 0.5, 0.5], [0.0, 0.0, 0.0], 2.0)
    pair = sample_on_grid(sol, grid8)
    assert np.abs(pair.E).max() == 0.0


def test_dipole_residual_order():
    sol = rl.dipole_field([1.6, 0.5, 0.5], [0.0, 0.0, 1.0], 2.0)
    res = []
    for n in (8, 16):
        g = rl.build_grid((n, n, n), 1.0 / n)
        mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
        sys_ = rl.assemble(g, mat, 2.0)
        res.append(rl.residual(sample_on_grid(sol, g), sys_))
    assert res[0] / res[1] > 3.0


def test_dipole_decay_along_ray():
    sol = rl.dipole_field([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 2.0)
    near = np.linalg.norm(sol.E([[0.5, 0.0, 0.0]]))
    far = np.linalg.norm(sol.E([[3.0, 0.0, 0.0]]))
    assert near > far


def test_dipole_singularity_guard(grid8):
    sol = rl.dipole_field([0.5, 0.5, 0.5], [0.0, 0.0, 1.0], 2.0)
    with pytest.raises(GeometryError):
        sample_on_grid(sol, grid8)
    close = rl.dipole_field([1.0 + 0.01, 0.5, 0.5], [0.0, 0.0, 1.0], 2.0)
    with pytest.raises(GeometryError):
        sample_on_grid(close, grid8)


def test_sample_conjugation(grid8):
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    pair = sample_on_grid(sol, grid8)
    conj_pair = sample_on_grid(sol.conjugate(), grid8)
    assert np.allclose(conj_pair.E, np.conj(pair.E))


def test_dipole_H_consistency():
    sol = rl.dipole_field([-0.8, 0.5, 0.5], [0.2, 0.0, 1.0], 2.0)
    errs = []
    for n in (8, 16):
        g = rl.build_grid((n, n, n), 1.0 / n)
        mat = rl.make_material(g, {"kind": "constant", "eps": 1.0, "mu": 1.0})
        pair = sample_on_grid(sol, g)
        derived = rl.derive_H_from_E(pair.E, mat, 2.0)
        errs.append(np.linalg.norm(derived - pair.H) / np.linalg.norm(pair.H))
    assert errs[0] / errs[1] > 3.0


def _vacuum_systems(ns, assembled=None):
    """A generator of vacuum systems on the unit cube at n^3 for n in ``ns``,
    appending each n to ``assembled`` as its system is assembled."""
    for n in ns:
        g = rl.build_grid((n, n, n), 1.0 / n)
        if assembled is not None:
            assembled.append(n)
        yield rl.assemble(g, rl.make_material(g, {"kind": "constant"}), 2.0)


def test_convergence_study_rejects_single_grid():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    with pytest.raises(ConfigurationError, match="at least two grids"):
        convergence_study(sol, _vacuum_systems([8]))


def test_convergence_study_stops_at_a_level_that_does_not_refine():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    assembled = []
    with pytest.raises(ConfigurationError, match="refine by factor two"):
        convergence_study(sol, _vacuum_systems([4, 8, 12, 24], assembled))
    # the bad level is the last one assembled
    assert assembled == [4, 8, 12]


def test_convergence_study_deterministic():
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    assert convergence_study(sol, _vacuum_systems([4, 8])) == \
        convergence_study(sol, _vacuum_systems([4, 8]))
