"""Acceptance criteria, one test per criterion, each printing a PASS line with
its elapsed time against the declared budget.  Run with -s to see the lines.
"""

import json
import time

import numpy as np
import pytest

import rungelab as rl
from rungelab import runge_op
from rungelab.experiments import normalize_config, run_cauchy, run_runge, run_three_balls, \
    run_verify_solver
from rungelab.errors import BadChecksumError

from conftest import load_config, rng_complex, svd_structure


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s <= {budget:.0f}s)")


def test_criterion_1_solver_convergence():
    budget = 300.0
    t0 = time.time()
    cfg = load_config("verify_vacuum.json")
    rep = run_verify_solver(cfg)
    orders = [r["order"] for r in rep.records[1:]]
    assert min(orders) >= 1.8, orders
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report("1 solver-convergence (order >= 1.8 on 8/16/32)", elapsed, budget)


def test_criterion_2_mimetic_identity(grid8):
    budget = 1.0
    t0 = time.time()
    defect = rl.mimetic_defect(grid8)
    assert defect.nnz == 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(grid8.n_edges)
        assert np.all((defect @ v) == 0.0)
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report("2 mimetic div(curl) == 0 bit-exact on 100 vectors", elapsed, budget)


def test_criterion_3_adjoint_fidelity(reference_runge_scene):
    budget = 600.0
    cfg, scene, gram, volume, op, svd, build_s = reference_runge_scene
    t0 = time.time() - build_s  # charge scene + operator assembly here
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        F = rng_complex(rng, volume.n_x)
        pde = runge_op.apply_adjoint(scene.system, F, gram, volume)
        mat = runge_op.matrix_adjoint(op, F)
        worst = max(worst, np.linalg.norm(pde - mat) / np.linalg.norm(mat))
    assert worst <= 1e-8, worst
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report(f"3 adjoint fidelity (worst rel {worst:.2e} <= 1e-8, 20 pairs, 12^3)",
            elapsed, budget)


def test_criterion_4_svd_structure(reference_runge_scene):
    budget = 60.0
    cfg, scene, gram, volume, op, svd, _ = reference_runge_scene
    t0 = time.time()
    rel = svd_structure(gram, volume, op, svd)
    assert rel <= 1e-10
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report(f"4 weighted SVD structure (recon rel {rel:.2e} <= 1e-10)", elapsed, budget)


def test_criterion_5_runge_decay(reference_runge_scene):
    budget = 900.0
    cfg, scene, gram, volume, op, svd, _ = reference_runge_scene
    t0 = time.time()
    rep = run_runge(cfg, scene=scene, svd=svd)
    errs = [r["x_error"] for r in rep.records]
    vs = [r["v_norm"] for r in rep.records]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:])), errs
    streak = best = 0
    for a, b in zip(errs, errs[1:]):
        streak = streak + 1 if b < a * (1 - 1e-12) else 0
        best = max(best, streak)
    assert best >= 6, errs
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vs, vs[1:])), vs
    for r in rep.records:
        assert r["v_norm"] <= r["v_bound"] * (1 + 1e-12)
    assert rep.passed, rep.flags
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report(f"5 runge decay (streak {best} strict decreases, termwise bound exact)",
            elapsed, budget)


def test_criterion_6_cauchy_stability():
    budget = 1800.0
    t0 = time.time()
    cfg = load_config("cauchy_reference.json")
    rep = run_cauchy(cfg)
    eta0 = rep.records[0]
    assert eta0["error_rel"] <= 10.0 * rep.budgets["forward_disc_rel_error"]
    medians = {}
    for r in rep.records[1:]:
        medians.setdefault(r["eta_rel"], []).append(r["error_hcurl"])
    ladder = sorted(medians)
    meds = [float(np.median(medians[e])) for e in ladder]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(meds, meds[1:])), meds
    fit = rep.fits[0]
    assert fit["exponent"] > 0
    assert fit["r2"] >= 0.8, fit
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report(f"6 cauchy stability (m {fit['exponent']:.2f} > 0, R2 {fit['r2']:.2f} >= 0.8, "
            f"eta0 rel {eta0['error_rel']:.1e})", elapsed, budget)


def test_criterion_7_three_ball_feasibility():
    budget = 600.0
    t0 = time.time()
    cfg = load_config("three_balls_reference.json")
    rep = run_three_balls(cfg)
    assert len(rep.records) >= 20
    fit = rep.fits[0]
    tau, C = fit["exponent"], fit["C"]
    assert 0.0 < tau < 1.0
    worst = -np.inf
    for r in rep.records:
        resid = np.log(r["a2"]) - tau * np.log(r["a1"]) - (1 - tau) * np.log(r["a3"]) \
            - np.log(C)
        worst = max(worst, resid)
    assert worst <= 1e-12, worst
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report(f"7 three-ball feasibility (tau {tau:.3f} in (0,1), max residual {worst:.1e} <= 0)",
            elapsed, budget)


def test_criterion_8_ball_chain_invariants():
    budget = 10.0
    t0 = time.time()
    grid = rl.build_grid((12, 12, 12), 1.0 / 12.0)
    host = rl.carve_region(grid, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    rng = np.random.default_rng(88)
    for trial in range(100):
        r1 = rng.uniform(0.004, 0.011)
        n_vertices = int(rng.integers(2, 6))
        path = rng.uniform(0.25, 0.75, size=(n_vertices, 3))
        chain = rl.chain_of_balls(path, r1, host)
        assert chain.check_invariants(host), trial
        bound = host.volume() / ((4 * np.pi / 3) * r1 ** 3) + 1
        assert chain.count <= bound
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report("8 ball-chain invariants on 100 random polylines", elapsed, budget)


def test_criterion_9_report_determinism():
    budget = 600.0
    t0 = time.time()
    cfg = load_config("three_balls_reference.json")
    first = run_three_balls(cfg)
    again = run_three_balls(normalize_config(first.config_echo))
    assert first.csv_text().encode() == again.csv_text().encode()
    a, b = first.sidecar(), again.sidecar()
    a.pop("volatile")
    b.pop("volatile")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report("9 report determinism (byte-identical rerun from config echo)", elapsed, budget)


def test_criterion_10_cache_integrity(tmp_path, reference_runge_scene):
    budget = 10.0
    cfg, scene, gram, volume, op, svd, _ = reference_runge_scene
    t0 = time.time()
    path = tmp_path / "reference.rgfo"
    runge_op.save_operator(op, path, rl.resonance_guard(scene.system))
    back, _ = runge_op.load_operator(path, gram.patch, gram.collar, volume, scene.system)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.gram.chol_V.tobytes() == gram.chol_V.tobytes()
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(BadChecksumError):
        runge_op.load_operator(path, gram.patch, gram.collar, volume, scene.system)
    elapsed = time.time() - t0
    assert elapsed <= budget
    _report("10 cache integrity (bit-exact roundtrip, corruption detected)", elapsed, budget)
