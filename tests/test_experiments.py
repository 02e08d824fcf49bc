import json

import numpy as np
import pytest
import scipy.linalg as sla

import rungelab as rl
from rungelab import oracle
from rungelab.errors import ConfigurationError, GeometryError
from rungelab.experiments import (CauchyOperator, ExperimentConfig, Report, Scene,
                                  StabilityBudget, build_scene, cauchy_reconstruct,
                                  h_trace_block, run_cauchy, run_localization, run_propagation,
                                  run_runge, run_three_balls, run_verify_solver, _cauchy_truth,
                                  _quotient)


def _cfg(**kwargs):
    base = {"tag": "three_balls", "grid": {"n": [8, 8, 8], "h": 0.125}}
    base.update(kwargs)
    return ExperimentConfig.from_dict(base)


def test_defaults_and_theta():
    cfg = _cfg()
    exps = cfg["exponents"]
    assert (exps["p"], exps["q"], exps["q0"]) == (4.0, 3.0, 4.0)
    # 1/q = (1-theta)/2 + theta/q0 solved for the defaults gives 2/3
    assert exps["theta"] == pytest.approx(2.0 / 3.0)


def test_rejects_bad_exponents():
    with pytest.raises(ConfigurationError):
        _cfg(exponents={"q": 3.0, "q0": 2.5})
    with pytest.raises(ConfigurationError):
        _cfg(exponents={"p": 1.5})
    with pytest.raises(ConfigurationError):
        _cfg(exponents={"q0": 5.0})  # q0 > p


def test_rejects_inconsistent_theta():
    with pytest.raises(ConfigurationError) as err:
        _cfg(exponents={"theta": 0.5})
    assert "identity" in str(err.value)


def test_consistent_theta_accepted():
    cfg = _cfg(exponents={"theta": 2.0 / 3.0})
    assert cfg["exponents"]["theta"] == pytest.approx(2.0 / 3.0)


def test_rejects_unknown_tag():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"tag": "mystery"})


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        StabilityBudget(eta=-1.0)
    b = StabilityBudget(eta=1.0, zeta=2.0)
    assert b.as_dict()["zeta"] == 2.0


def test_normalized_config_is_fixed_point():
    cfg = _cfg()
    again = ExperimentConfig.from_dict(cfg.echo())
    assert again.data == cfg.data


def test_report_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        Report("three_balls", {}, [{"sample": 0, "seed": 0, "a1": np.nan, "a2": 1.0,
                                    "a3": 1.0, "m0": 0.0}], [], {})


def test_report_csv_shape():
    rep = Report("three_balls", {}, [{"sample": 0, "seed": 3, "a1": 0.5, "a2": 1.0,
                                      "a3": 2.0, "m0": 0.0}], [], {"ok": True})
    lines = rep.csv_text().splitlines()
    assert lines[0] == "sample,seed,a1,a2,a3,m0"
    assert lines[1].startswith("0,3,0.5,1,2,")


def test_three_balls_quick():
    cfg = _cfg(three_balls={"n_samples": 8, "seed": 0})
    rep = run_three_balls(cfg)
    fit = rep.fits[0]
    assert 0 < fit["exponent"] < 1
    # certified bound: every recorded triple satisfies it at the fitted constants
    tau, C = fit["exponent"], fit["C"]
    for r in rep.records:
        assert r["a2"] <= C * r["a1"] ** tau * r["a3"] ** (1 - tau) * (1 + 1e-9)


def test_three_balls_m0_offset_trivial_bound():
    cfg = _cfg(three_balls={"n_samples": 6, "seed": 1, "m0": 0.05})
    rep = run_three_balls(cfg)
    tau = rep.fits[0]["exponent"]
    m0 = 0.05
    for r in rep.records:
        lhs = m0
        rhs = (r["a1"] + m0) ** tau * (r["a3"] + m0) ** (1 - tau)
        assert lhs <= rhs * (1 + 1e-12)


def test_three_balls_rejects_bad_radii():
    cfg = _cfg(three_balls={"r1": 0.2, "r2": 0.3, "r3": 0.5})
    with pytest.raises(GeometryError):
        run_three_balls(cfg)


def _runge_cfg(**runge):
    spec = {"m": 3.0, "target": {"kind": "dipole", "x0": [0.82, 0.5, 0.5], "m": [0, 0, 1.0]}}
    spec.update(runge)
    return ExperimentConfig.from_dict({
        "tag": "runge",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "regions": {"A": {"kind": "ball", "center": [0.35, 0.5, 0.5], "r": 0.18}},
        "runge": spec,
    })


def test_runge_monotonicity_quick():
    rep = run_runge(_runge_cfg(js=[1, 2, 3, 4, 5]))
    errs = [r["x_error"] for r in rep.records]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
    vs = [r["v_norm"] for r in rep.records]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vs, vs[1:]))
    assert rep.flags["termwise_bound_ok"]


def test_runge_exact_target_in_span(small_restriction):
    # target = A f for a known f: with alpha below the smallest kept sigma the
    # approximant reproduces the target up to the out-of-span residual (zero here)
    sys_, weights, op, svd = small_restriction
    rng = np.random.default_rng(7)
    f = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
    W = op.apply(f)
    coeffs, resid = rl.expand_target(svd, W)
    assert resid <= 1e-9 * weights.x_norm(W)
    appr = rl.truncate(svd, coeffs, alpha=float(svd.sigma[-1]) * 0.999)
    err = weights.x_norm(W - op.apply(appr.boundary_data))
    assert err <= 1e-8 * weights.x_norm(W)


def _cauchy_cfg(**over):
    base = {
        "tag": "cauchy",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "patch": {"side": ["x-", "y-", "y+", "z-", "z+"], "collar": "include_rim"},
        "truth": {"kind": "far_side_bump", "side": "x+", "center": [1.0, 0.45, 0.55],
                  "width": 0.3},
        "noise": {"etas": [1e-2, 1e-4], "seeds": [11, 12, 13]},
    }
    base.update(over)
    return ExperimentConfig.from_dict(base)


def test_cauchy_quick_consistency():
    rep = run_cauchy(_cauchy_cfg())
    eta0 = rep.records[0]
    assert eta0["eta_rel"] == 0.0
    assert eta0["error_rel"] <= 10 * rep.budgets["forward_disc_rel_error"]
    assert rep.flags["monotone_in_eta"]


def test_cauchy_morozov_within_factor_two():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    weights = rl.build_norm_weights(scene.patch, scene.omega_region, collar="include_rim")
    cop = CauchyOperator(scene, weights)
    from rungelab.experiments import _cauchy_truth
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    rng = np.random.default_rng(0)
    eta = 1e-2 * float(np.linalg.norm(d0))
    nf = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
    ng = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
    nf *= (eta / 2) / weights.v_norm(nf)
    ng *= (eta / 2) / weights.v_norm(ng)
    _, lam, misfit = cauchy_reconstruct(cop, d0[:weights.n_v] + nf, d0[weights.n_v:] + ng,
                                        "morozov", eta_target=eta)
    assert misfit <= 2 * eta
    assert misfit >= eta / 2


def test_cauchy_penalty_dominance():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    weights = rl.build_norm_weights(scene.patch, scene.omega_region, collar="include_rim")
    cop = CauchyOperator(scene, weights)
    from rungelab.experiments import _cauchy_truth
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    fields, _, _ = cauchy_reconstruct(cop, d0[:weights.n_v], d0[weights.n_v:],
                                      "fixed", lam_fixed=1e12)
    scale = np.abs(truth.E).max()
    assert np.abs(fields.E).max() <= 1e-6 * scale


def _cauchy_operator():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    weights = rl.build_norm_weights(scene.patch, scene.omega_region, collar="include_rim")
    return cfg, scene, weights, CauchyOperator(scene, weights)


def test_cauchy_h_block_matches_single_solves():
    _, scene, _, cop = _cauchy_operator()
    sys_ = scene.system
    T_H = 1j * h_trace_block(sys_, cop.h_dofs)
    boundary = oracle._whole_boundary(scene.grid)
    assert np.array_equal(boundary.edge_dofs, sys_.idx_boundary)
    # boundary columns on the box's edge lines couple to no interior edge
    edge_line = np.flatnonzero(sys_.L_IB.getnnz(axis=0) == 0)
    assert len(edge_line) > 0
    picks = [int(edge_line[0])] + [int(j) for j in np.random.default_rng(5).choice(
        len(sys_.idx_boundary), size=6, replace=False)]
    for j in picks:
        values = np.zeros(boundary.n_dofs, dtype=complex)
        values[j] = 1.0
        H = rl.solve_bvp(sys_, rl.TangentialTrace(boundary, values)).H[cop.h_dofs]
        assert np.linalg.norm(H) > 0
        assert np.linalg.norm(T_H[:, j] - H) <= 1e-10 * np.linalg.norm(H), j


def test_cauchy_real_svd_matches_complex_reference():
    # reference: complex SVD of block_diag(L, L)^T T with the complex T
    cfg, scene, weights, cop = _cauchy_operator()
    nv, nb = weights.n_v, len(cop.b_dofs)
    bpos = {int(d): i for i, d in enumerate(cop.b_dofs)}
    T_E = np.zeros((nv, nb), dtype=complex)
    T_E[np.arange(nv), [bpos[int(d)] for d in weights.v_dofs]] = 1.0
    T = np.vstack([T_E, 1j * h_trace_block(scene.system, cop.h_dofs)])
    chol = sla.block_diag(weights.chol_V, weights.chol_V)
    sq = np.sqrt(cop.reg_diag)
    U, S, Vh = np.linalg.svd((chol.T @ T) / sq[None, :], full_matrices=False)

    def parts(d):
        dw = chol.T @ d
        ud = U.conj().T @ dw
        return ud, max(np.linalg.norm(dw) ** 2 - np.linalg.norm(ud) ** 2, 0.0)

    def misfit(d, lam):
        ud, out2 = parts(d)
        return float(np.sqrt(np.linalg.norm(lam / (S ** 2 + lam) * ud) ** 2 + out2))

    def morozov(d, target, lo=1e-14, hi=1e6):
        llo, lhi = np.log10(lo), np.log10(hi)
        for _ in range(80):
            mid = 0.5 * (llo + lhi)
            if misfit(d, 10.0 ** mid) < target:
                llo = mid
            else:
                lhi = mid
        return 10.0 ** (0.5 * (llo + lhi))

    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    rng = np.random.default_rng(0)
    eta = 1e-2 * float(np.linalg.norm(d0))
    noise = rng.standard_normal(2 * nv) + 1j * rng.standard_normal(2 * nv)
    d = d0 + eta * noise / np.linalg.norm(noise)
    assert cop.misfit_norm(d) == pytest.approx(np.linalg.norm(chol.T @ d), rel=1e-12)
    for lam in (1e-10, 1e-6, 1e-2):
        ud, _ = parts(d)
        ref = (Vh.conj().T @ (S / (S ** 2 + lam) * ud)) / sq
        assert np.linalg.norm(cop.solve_ridge(d, lam) - ref) <= 1e-9 * np.linalg.norm(ref)
        assert cop.misfit_of_lambda(d, lam) == pytest.approx(misfit(d, lam), rel=1e-9)
    target = misfit(d, 1e-4)
    assert cop.morozov_lambda(d, target) == pytest.approx(morozov(d, target), rel=1e-9)


def test_cauchy_misfit_keeps_out_of_span_noise_at_low_eta():
    # noise-free data lie in the span of the left singular vectors, so at
    # lambda = 0 the misfit is the out-of-span part of the whitened noise;
    # ||dw||^2 - ||ud||^2 loses it to cancellation at this noise level
    cfg, scene, weights, cop = _cauchy_operator()
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(d0.size) + 1j * rng.standard_normal(d0.size)
    noise *= 1e-6 * np.linalg.norm(d0) / np.linalg.norm(noise)
    nw = cop._white(noise)
    U = cop.Ut.T
    out = np.linalg.norm(nw - U @ (U.T @ nw))
    assert cop.misfit_of_lambda(d0 + noise, 0.0) == pytest.approx(out, rel=1e-6)


def test_cauchy_discretization_probe_matches_convergence_study():
    cfg = _cauchy_cfg(noise={"etas": [1e-2], "seeds": [3]})
    rep = run_cauchy(cfg)
    grid = rl.build_grid(cfg["grid"]["n"], cfg["grid"]["h"])
    refined = rl.build_grid([2 * n for n in grid.n], grid.h / 2)
    probe = rl.plane_wave([cfg["omega"], 0.0, 0.0], [0.0, 1.0, 0.0], cfg["omega"])
    rows = rl.convergence_study(probe, [grid, refined], omega=cfg["omega"],
                                material_spec=cfg["material"])
    assert rep.budgets["forward_disc_rel_error"] == rows[0][1]


def test_localization_quotient_algebra(small_restriction):
    # with identical operators on both slots the quotient stays below one
    _, weights, op, _ = small_restriction
    rng = np.random.default_rng(8)
    f = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
    q = _quotient(op, op, weights, weights, 1e-6, f)
    assert q < 1.0


def test_localization_rejects_overlap():
    cfg = ExperimentConfig.from_dict({
        "tag": "localization",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "regions": {"M": {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2},
                    "D": {"kind": "ball", "center": [0.55, 0.5, 0.5], "r": 0.2}},
    })
    with pytest.raises(GeometryError):
        run_localization(cfg)


def test_propagation_data_ball_contains_g():
    # G inside the data ball: the two-factor bound holds with delta = 1, C = 1
    cfg = ExperimentConfig.from_dict({
        "tag": "propagation",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "patch": {"side": "x-"},
        "regions": {"G": {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.15}},
        "propagation": {"x0": [0.5, 0.5, 0.5], "r0": 0.3, "margin_h": 0.15,
                        "n_paths": 2, "n_samples": 5, "seed": 0},
    })
    rep = run_propagation(cfg)
    for r in rep.records:
        assert r["g_norm"] <= r["ball_norm"] * (1 + 1e-12)


def test_propagation_rejects_margin_conflict():
    cfg = ExperimentConfig.from_dict({
        "tag": "propagation",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "regions": {"G": {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2}},
        "propagation": {"x0": [0.5, 0.5, 0.5], "r0": 0.2, "margin_h": 0.15},
    })
    with pytest.raises(GeometryError):
        run_propagation(cfg)


def test_report_determinism_quick():
    cfg = _cfg(three_balls={"n_samples": 5, "seed": 0})
    a = run_three_balls(cfg)
    b = run_three_balls(ExperimentConfig.from_dict(a.config_echo))
    assert a.csv_text() == b.csv_text()
    sa, sb = a.sidecar(), b.sidecar()
    sa.pop("volatile")
    sb.pop("volatile")
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


def test_propagation_reference_config():
    from conftest import load_config
    rep = run_propagation(load_config("propagation_reference.json"))
    assert rep.passed, rep.flags
    delta = rep.fits[0]["exponent"]
    assert 0.0 < delta < 1.0
    assert all(r["chain_count"] >= 2 for r in rep.records)


def test_localization_reference_config():
    from conftest import load_config
    rep = run_localization(load_config("localization_reference.json"))
    assert rep.passed, rep.flags
    assert rep.records[-1]["quotient"] > 10.0
    quotients = [r["quotient"] for r in rep.records]
    assert quotients == sorted(quotients)


def test_schema_balls_and_material_params():
    cfg = ExperimentConfig.from_dict({
        "tag": "three_balls",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "material": {"kind": "smooth", "params": {"amplitude": 0.2}},
        "regions": {"balls": {"center": [0.5, 0.5, 0.5], "r1": 0.12, "r2": 0.21,
                              "r3": 0.45, "r0": 0.3, "margin_h": 0.1}},
    })
    assert cfg["material"]["amplitude"] == 0.2
    assert cfg["material"]["seed"] == 0
    assert cfg["three_balls"]["r1"] == 0.12
    assert cfg["propagation"]["x0"] == [0.5, 0.5, 0.5]
    again = ExperimentConfig.from_dict(cfg.echo())
    assert again.data == cfg.data


def test_three_balls_smooth_material():
    cfg = ExperimentConfig.from_dict({
        "tag": "three_balls",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "material": {"kind": "smooth", "seed": 5, "amplitude": 0.25},
        "three_balls": {"n_samples": 6, "seed": 2},
    })
    rep = run_three_balls(cfg)
    tau, C = rep.fits[0]["exponent"], rep.fits[0]["C"]
    for r in rep.records:
        assert r["a2"] <= C * r["a1"] ** tau * r["a3"] ** (1 - tau) * (1 + 1e-9)


def test_cauchy_dipole_truth_branch():
    cfg = _cauchy_cfg(truth={"kind": "dipole", "x0": [1.4, 0.5, 0.5], "m": [0, 0, 1.0]},
                      noise={"etas": [1e-2], "seeds": [3]})
    rep = run_cauchy(cfg)
    assert rep.budgets["truth_kind"] == "analytic"
    assert all(np.isfinite(r["error_hcurl"]) for r in rep.records)
    noisy = [r for r in rep.records if r["eta_rel"] > 0]
    assert noisy and all(r["misfit"] > 0 for r in noisy)


def test_runge_plane_wave_target(small_restriction):
    # a plane wave extends to the whole box, so its coefficients concentrate
    # on well-visible modes and the deep-alpha error falls well under the
    # initial one
    sys_, weights, op, svd = small_restriction
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    from rungelab.experiments import _target_on_region
    W = _target_on_region(sol, weights)
    coeffs, out_resid = rl.expand_target(svd, W)
    first = rl.truncate(svd, coeffs, svd.sigma[0])
    deep = rl.truncate(svd, coeffs, 1e-8 * svd.sigma[0])
    e_first = np.hypot(first.in_span_error(), out_resid)
    e_deep = np.hypot(deep.in_span_error(), out_resid)
    assert e_deep < 0.05 * e_first


def test_verify_uses_its_solver_block(monkeypatch):
    base = {"tag": "verify_solver", "grid": {"n": [4, 4, 4], "h": 0.25}, "omega": 2.0,
            "verify": {"levels": 2}, "tolerances": {"convergence_order": 1.5}}
    default = run_verify_solver(ExperimentConfig.from_dict(base))

    factorizations = []
    splu = rl.solver.spla.splu
    monkeypatch.setattr(rl.solver.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    krylov = run_verify_solver(ExperimentConfig.from_dict(
        dict(base, solver={"direct_limit": 0})))
    assert factorizations == []
    assert krylov.fits[0]["orders"] == pytest.approx(default.fits[0]["orders"], abs=1e-8)
