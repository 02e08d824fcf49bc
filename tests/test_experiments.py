import ast
import inspect
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import rungelab as rl
from rungelab import experiments, runge_op
from rungelab.errors import ConfigurationError, GeometryError, NumericError
from rungelab.experiments import (CauchyOperator, Report, build_scene,
                                  cauchy_reconstruct, h_trace_block, normalize_config,
                                  run_cauchy, run_localization, run_propagation, run_runge,
                                  run_three_balls, run_verify_solver, _cauchy_truth, _quotient)
from rungelab.oracle import sample_dofs

from conftest import CONFIG_DIR, FakeLU, load_config, transform_off


def _cfg(**kwargs):
    base = {"tag": "three_balls", "grid": {"n": [8, 8, 8], "h": 0.125}}
    base.update(kwargs)
    return normalize_config(base)


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
        normalize_config({"tag": "mystery"})


@pytest.mark.parametrize("tag, key, value", [
    ("runge", "js", []), ("runge", "js", [3]), ("runge", "js", [1, 2]),
    ("runge", "js", [0, 1, 2]), ("runge", "js", [1, 3, 2]), ("runge", "js", [1, 2, 2]),
    ("runge", "js", [1, 2.5, 3]), ("runge", "js", [1, True, 3]), ("runge", "js", "123"),
    ("localization", "cutoffs", []), ("localization", "cutoffs", [0]),
    ("localization", "cutoffs", [-3]), ("localization", "cutoffs", [10, "20"]),
    ("three_balls", "seed", -1), ("propagation", "seed", 1.5), ("localization", "seed", True),
    ("localization", "seed", "0"), ("three_balls", "n_samples", 2),
    ("propagation", "n_samples", 2), ("propagation", "n_samples", 12.0),
    ("propagation", "n_paths", 0), ("propagation", "n_paths", None),
])
def test_rejects_bad_integer_lists(tag, key, value):
    # caught before any solve: each of these used to fail late or not at all
    with pytest.raises(ConfigurationError, match=f"{tag}.{key} must be"):
        normalize_config({"tag": tag, tag: {key: value}})


@pytest.mark.parametrize("etas", [[1.0], [0.0], [1.5], [0.1, -0.01], [], [0.1, True],
                                  [float("nan")], ["0.1"], 0.1])
def test_rejects_bad_noise_etas(etas):
    # 1.0 used to divide by zero in the Cauchy study, 0.0 and 1.5 to fail in
    # the final fit, after every solve
    with pytest.raises(ConfigurationError, match="noise.etas must be"):
        normalize_config({"tag": "cauchy", "noise": {"etas": etas}})


@pytest.mark.parametrize("seeds", [[101, -1], [], [1.0], [True], ["7"], 101])
def test_rejects_bad_noise_seeds(seeds):
    # a negative seed used to die in numpy's generator after the eta = 0 run
    with pytest.raises(ConfigurationError, match="noise.seeds must be"):
        normalize_config({"tag": "cauchy", "noise": {"seeds": seeds}})


@pytest.mark.parametrize("raw, message", [
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 2.0}, "seed must be an integer >= 0, got 2.0"),
    ({"seed": None}, "seed must be an integer >= 0, got None"),
    ({"seed": "3"}, "seed must be an integer >= 0, got '3'"),
    ({"verify": {"levels": 1}}, "verify.levels must be an integer >= 2, got 1"),
    ({"verify": {"levels": 2.5}}, "verify.levels must be an integer >= 2, got 2.5"),
])
def test_rejects_bad_top_level_integers(raw, message):
    with pytest.raises(ConfigurationError, match=message):
        normalize_config({"tag": "verify_solver", **raw})


@pytest.mark.parametrize("value", [None, [], [1, 2], "x", 3])
@pytest.mark.parametrize("key", ["noise", "output", "patch", "exponents", "grid", "material",
                                 "regions", "solver", "tolerances",
                                 "localization", "truth"])
def test_rejects_a_section_that_is_not_an_object(key, value):
    # a null or list section used to die in setdefault with an AttributeError
    section, _, sub = key.partition(".")
    raw = {"tag": "three_balls", section: {sub: value} if sub else value}
    with pytest.raises(ConfigurationError, match=f"config section {key} must be a JSON object"):
        normalize_config(raw)


_PROPAGATION = {"tag": "propagation",
                "regions": {"G": {"kind": "box", "lo": [0.2] * 3, "hi": [0.8] * 3}},
                "propagation": {"x0": [0.5] * 3, "r0": 0.24, "margin_h": 0.1}}


@pytest.mark.parametrize("drop", ["x0", "r0", "margin_h", "G"])
def test_propagation_requires_its_geometry(drop):
    # run_propagation used to die with a KeyError after assembling the system
    raw = json.loads(json.dumps(_PROPAGATION))
    section = raw["regions"] if drop == "G" else raw["propagation"]
    del section[drop]
    name = "regions.G" if drop == "G" else f"propagation.{drop}"
    with pytest.raises(ConfigurationError, match=f"^propagation needs {name}$"):
        normalize_config(raw)
    normalize_config(_PROPAGATION)


@pytest.mark.parametrize("value", [None, [], [1, 2], "x", 3, {},
                                   {"center": [0.5] * 3, "r1": 0.12}])
@pytest.mark.parametrize("key", ["regions.balls", "material.params"])
def test_rejects_removed_keys(key, value):
    # whatever it holds: its entries used to be copied into three_balls,
    # propagation or material
    section, _, leaf = key.partition(".")
    with pytest.raises(ConfigurationError, match=f"^config key {key} was removed"):
        normalize_config({"tag": "three_balls", section: {leaf: value}})


@pytest.mark.parametrize("key, value", [
    ("omega", 0), ("omega", -2.0), ("omega", None), ("omega", "2"), ("omega", True),
    ("runge.C", float("nan")), ("runge.m", 0.0), ("runge.m", float("inf")),
    ("three_balls.r1", None), ("three_balls.r2", -0.1), ("three_balls.r3", "0.45"),
    ("propagation.r0", 0), ("propagation.margin_h", False),
    ("localization.eps_reg", "tiny"), ("localization.eps_reg", 0.0), ("truth.width", -0.3),
])
def test_rejects_numbers_that_are_not_positive(key, value):
    # three_balls.r1: null died with a TypeError after assembly, and
    # localization.eps_reg: "tiny" with a ValueError after the restriction solves
    section, _, leaf = key.rpartition(".")
    raw = {"tag": "three_balls", **({section: {leaf: value}} if section else {leaf: value})}
    with pytest.raises(ConfigurationError, match=f"^{key} must be a finite number > 0, got"):
        normalize_config(raw)


@pytest.mark.parametrize("key, value", [
    ("three_balls.m0", -1), ("three_balls.m0", None), ("regularization.lambda", -1e-12),
    ("regularization.lambda", float("nan")), ("regularization.lambda", "1e-12"),
])
def test_rejects_numbers_that_are_negative(key, value):
    # a negative m0 used to raise only after every sample was solved
    section, _, leaf = key.partition(".")
    with pytest.raises(ConfigurationError, match=f"^{key} must be a finite number >= 0, got"):
        normalize_config({"tag": "three_balls", section: {leaf: value}})


def test_accepts_the_bounds_of_the_numbers():
    cfg = normalize_config({"tag": "three_balls", "omega": 3, "three_balls": {"m0": 0},
                            "regularization": {"lambda": 0.0}, "truth": {"width": 1e-3}})
    assert cfg["omega"] == 3 and cfg["three_balls"]["m0"] == 0


def test_normalized_config_is_fixed_point():
    cfg = _cfg()
    assert normalize_config(cfg) == cfg


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_reference_echo_is_fixed_point(name):
    # the sidecar echoes the normalized config, which carries every default
    cfg = load_config(name)
    assert normalize_config(cfg) == cfg


@pytest.mark.parametrize("key", ["three_balls.center", "propagation.x0", "grid.origin",
                                 "truth.center", "runge.target.x0", "verify.wave.k"])
@pytest.mark.parametrize("value", ["middle", [0.5, 0.5], [0.5, 0.5, 0.5, 0.5],
                                   [0.5, float("nan"), 0.5], [True, 0.5, 0.5], None])
def test_rejects_points_that_are_not_three_numbers(key, value):
    # "center": "middle" died in numpy after assembly, [0.5, 0.5] with a
    # broadcasting ValueError
    *path, leaf = key.split(".")
    raw = {"tag": "three_balls"}
    section = raw
    for part in path:
        section = section.setdefault(part, {})
    section[leaf] = value
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(key)} must be a list of three finite numbers, got"):
        normalize_config(raw)


@pytest.mark.parametrize("key, value, rule", [
    ("grid.n", [8, 8], "three integers >= 4"), ("grid.n", [8, 3, 8], "three integers >= 4"),
    ("patch.side", "w-", "a side or a non-empty list of sides"),
    ("patch.side", [], "a side or a non-empty list of sides"),
    ("patch.collar", "rim", "one of exclude_rim, include_rim"),
    ("runge.target.kind", "monopole", "one of dipole, plane_wave"),
    ("truth.kind", None, "one of far_side_bump, dipole"),
    ("truth.side", "x", "one of x-, x+, y-, y+, z-, z+"),
    ("regularization.strategy", "lcurve", "one of morozov, fixed"),
    ("solver.tol", 0, "a finite number > 0"),
    ("solver.direct_limit", 1e9, "an integer >= 0"),
    ("localization.n_random", -1, "an integer >= 0"),
    ("tolerances.strict_decreases", 6.0, "an integer >= 0"),
    ("tolerances.r2_growth", "0.9", "a finite number >= 0"),
    ("exponents.q", 2, "a finite number > 2"), ("exponents.theta", "2/3", "a finite number > 0"),
])
def test_rejects_values_that_break_their_rule(key, value, rule):
    *path, leaf = key.split(".")
    raw = {"tag": "three_balls"}
    section = raw
    for part in path:
        section = section.setdefault(part, {})
    section[leaf] = value
    with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{key} must be {rule}, got')}"):
        normalize_config(raw)


_BALL = {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2}


@pytest.mark.parametrize("raw, message", [
    ({"tag": "runge"}, "runge needs regions.A, runge.target"),
    ({"tag": "runge", "regions": {"A": _BALL}, "runge": {"target": {}}},
     "runge needs runge.target.x0"),
    ({"tag": "runge", "regions": {"A": _BALL},
      "runge": {"target": {"kind": "plane_wave", "k": [2.0, 0.0, 0.0]}}},
     "runge needs runge.target.p"),
    ({"tag": "localization", "regions": {"D": _BALL}}, "localization needs regions.M"),
    ({"tag": "localization"}, "localization needs regions.M, regions.D"),
    ({"tag": "cauchy", "truth": {"kind": "dipole"}}, "cauchy needs truth.x0"),
    ({"tag": "propagation"},
     "propagation needs propagation.x0, propagation.r0, propagation.margin_h, regions.G"),
])
def test_each_tag_needs_its_keys(raw, message):
    # a missing region or target used to die with a KeyError after assembly
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        normalize_config(raw)


def test_derived_defaults_follow_the_grid_and_the_patch():
    grid = {"n": [10, 10, 12], "h": 0.1, "origin": [0.3, -0.2, 0.1]}
    balls = normalize_config({"tag": "three_balls", "grid": grid})
    center = (np.array(grid["n"]) * grid["h"] / 2 + np.asarray(grid["origin"])).tolist()
    assert balls["three_balls"]["center"] == center
    assert "truth" not in balls and "wave" not in balls["verify"]
    assert "seed" not in balls["three_balls"]  # a section seed follows the top-level one
    cauchy = normalize_config({"tag": "cauchy", "grid": grid,
                               "patch": {"side": ["x-", "y-", "y+", "z-", "z+"]}})
    truth = cauchy["truth"]
    assert truth == {"kind": "far_side_bump", "side": "x+", "center": center, "width": 0.25}
    assert truth["center"] == (np.asarray(grid["origin"])
                               + 0.5 * np.array(grid["n"]) * grid["h"]).tolist()
    verify = normalize_config({"tag": "verify_solver", "omega": 3})
    assert verify["verify"]["wave"] == {"k": [3.0, 0.0, 0.0], "p": [0.0, 1.0, 0.0]}
    assert verify["grid"]["h"] == 1.0 / 12
    assert (verify["solver"]["direct_limit"], balls["solver"]["direct_limit"]) == \
        (0, rl.solver.DIRECT_LIMIT)


def test_drivers_hold_no_defaults():
    # every default lives in the table: a driver indexes its config, and only
    # a section seed falls back, to the top-level seed
    tree = ast.parse(inspect.getsource(experiments))
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in ("normalize_config", "_lookup"):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "setdefault") and len(node.args) > 1):
                assert ast.unparse(node) == "spec.get('seed', cfg['seed'])", (fn.name,
                                                                               ast.unparse(node))


def test_readme_schema_names_every_table_key():
    with open(os.path.join(CONFIG_DIR, os.pardir, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^- `([^`]+)`", section, re.M))
    assert named == {key for key, *_ in experiments._TABLE} | {"tag"}


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
    # checked on the config and the grid alone, before any assembly
    with pytest.raises(GeometryError, match=r"^need r1 < r2 < r3/2, got 0.2, 0.3, 0.5$"):
        _cfg(three_balls={"r1": 0.2, "r2": 0.3, "r3": 0.5})


def test_three_balls_rejects_an_outer_ball_outside_the_box():
    with pytest.raises(GeometryError, match="^outer ball must sit inside the box$"):
        _cfg(three_balls={"center": [0.3, 0.5, 0.5]})


def _runge_cfg(**runge):
    spec = {"m": 3.0, "target": {"kind": "dipole", "x0": [0.82, 0.5, 0.5], "m": [0, 0, 1.0]}}
    spec.update(runge)
    return normalize_config({
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
    sys_, gram, volume, op, svd = small_restriction
    rng = np.random.default_rng(7)
    f = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
    W = op.apply(f)
    ex = svd.expand(W)
    assert np.sqrt(ex.out2) <= 1e-9 * volume.x_norm(W)
    data, _, _ = ex.truncate(float(svd.sigma[-1]) * 0.999)
    err = volume.x_norm(W - op.apply(data))
    assert err <= 1e-8 * volume.x_norm(W)


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
    return normalize_config(base)


def test_cauchy_truth_side_defaults_to_the_free_side():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    named, _ = _cauchy_truth(cfg, scene)
    free = _cauchy_cfg(truth={"kind": "far_side_bump", "center": [1.0, 0.45, 0.55],
                              "width": 0.3})
    assert free["truth"]["side"] == "x+"
    inferred, _ = _cauchy_truth(free, scene)
    assert np.array_equal(inferred.E, named.E)
    # two free sides: refused by the config check, before any assembly
    with pytest.raises(ConfigurationError, match="^truth.side is required unless"):
        _cauchy_cfg(patch={"side": ["x-", "y-", "y+", "z-"]}, truth={"kind": "far_side_bump"})


def test_cauchy_quick_consistency():
    rep = run_cauchy(_cauchy_cfg())
    eta0 = rep.records[0]
    assert eta0["eta_rel"] == 0.0
    assert eta0["error_rel"] <= 10 * rep.budgets["forward_disc_rel_error"]
    assert rep.flags["monotone_in_eta"]


def test_cauchy_morozov_within_factor_two():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    gram = rl.build_norm_weights(scene.patch, collar="include_rim")
    cop = CauchyOperator(scene, gram)
    from rungelab.experiments import _cauchy_truth
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    rng = np.random.default_rng(0)
    eta = 1e-2 * float(np.linalg.norm(d0))
    nf = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
    ng = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
    nf *= (eta / 2) / gram.v_norm(nf)
    ng *= (eta / 2) / gram.v_norm(ng)
    _, lam, misfit = cauchy_reconstruct(cop, d0 + np.concatenate([nf, ng]), "morozov",
                                        eta_target=eta)
    assert misfit <= 2 * eta
    assert misfit >= eta / 2


def test_cauchy_penalty_dominance():
    cfg = _cauchy_cfg()
    scene = build_scene(cfg)
    gram = rl.build_norm_weights(scene.patch, collar="include_rim")
    cop = CauchyOperator(scene, gram)
    from rungelab.experiments import _cauchy_truth
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    fields, _, _ = cauchy_reconstruct(cop, d0, "fixed", lam_fixed=1e12)
    scale = np.abs(truth.E).max()
    assert np.abs(fields.E).max() <= 1e-6 * scale


# most boundary columns free: W has 2 n_v = 448 rows against 768 columns, so
# at least 320 of R_W's singular values are zero
TWO_SIDES = {"patch": {"side": ["x-", "y-"], "collar": "exclude_rim"}}
GEOMETRIES = ({}, TWO_SIDES)


def _cauchy_operator(**over):
    cfg = _cauchy_cfg(**over)
    scene = build_scene(cfg)
    gram = rl.build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
    return cfg, scene, gram, CauchyOperator(scene, gram)


def test_cauchy_h_block_matches_single_solves():
    _, scene, _, cop = _cauchy_operator()
    sys_ = scene.system
    T_H = 1j * h_trace_block(sys_, cop.h_dofs)
    boundary = rl.geometry.whole_boundary(scene.grid)
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


def test_cauchy_h_block_transform_matches_lu(monkeypatch):
    # the vacuum scene's chunks take the batched transform; with its start
    # switched off the same chunks go to the LU
    _, scene, gram, cop = _cauchy_operator()
    sys_ = scene.system
    assert sys_.direct and sys_.constant
    R = h_trace_block(sys_, cop.h_dofs)
    transform_off(monkeypatch)
    R_lu = h_trace_block(sys_, cop.h_dofs)
    assert np.linalg.norm(R - R_lu) <= 1e-12 * np.linalg.norm(R_lu)
    S_lu = CauchyOperator(scene, gram).S
    assert np.abs(cop.S - S_lu).max() <= 1e-10 * S_lu.max()


def test_cauchy_h_block_checks_its_solves(monkeypatch):
    # the real block's columns go through solve_interior's residual check:
    # with the transform start off, a bad factorization cannot pass
    _, scene, _, cop = _cauchy_operator()
    transform_off(monkeypatch)
    monkeypatch.setattr(scene.system, "_lu", FakeLU(lambda b: 2.0 * b))
    with pytest.raises(NumericError) as err:
        h_trace_block(scene.system, cop.h_dofs)
    assert len(err.value.history) == experiments.H_CHUNK
    assert min(err.value.history) > 10 * scene.system.solver_tol


def _whitened_reference(scene, gram, cop):
    """block_diag(L, L) and the dense complex whitened operator
    block_diag(L, L)^T T rsq, with T = [T_E; i R] built from its
    definition in the boundary dof order."""
    nv, nb = gram.n_v, len(cop.b_dofs)
    bpos = {int(d): i for i, d in enumerate(cop.b_dofs)}
    T_E = np.zeros((nv, nb), dtype=complex)
    T_E[np.arange(nv), [bpos[int(d)] for d in gram.v_dofs]] = 1.0
    T = np.vstack([T_E, 1j * h_trace_block(scene.system, cop.h_dofs)])
    chol = sla.block_diag(gram.chol_V, gram.chol_V)
    return chol, (chol.T @ T) / np.sqrt(cop.reg)


def _noisy_data(cfg, scene, cop, rel, seed):
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(d0.size) + 1j * rng.standard_normal(d0.size)
    return d0, noise * (rel * np.linalg.norm(d0) / np.linalg.norm(noise))


def test_cauchy_real_svd_matches_complex_reference():
    # reference: complex SVD of block_diag(L, L)^T T with the complex T
    for over in GEOMETRIES:
        cfg, scene, gram, cop = _cauchy_operator(**over)
        nv = gram.n_v
        chol, Wc = _whitened_reference(scene, gram, cop)
        sq = np.sqrt(cop.reg)
        U, S, Vh = np.linalg.svd(Wc, full_matrices=False)

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
            ridge = cop.expand(d).ridge(lam) / sq
            assert np.linalg.norm(ridge - ref) <= 1e-9 * np.linalg.norm(ref)
            assert cop.expand(d).ridge_misfit(lam) == pytest.approx(misfit(d, lam), rel=1e-9)
        target = misfit(d, 1e-4)
        assert cop.expand(d).discrepancy_lambda(target) == pytest.approx(morozov(d, target),
                                                                          rel=1e-9)


def test_cauchy_misfit_keeps_out_of_span_noise_at_low_eta():
    # noise-free data lie in the span of the left singular vectors, so at
    # lambda = 0 the misfit is the out-of-span part of the whitened noise;
    # ||dw||^2 - ||ud||^2 loses it to cancellation at this noise level
    cfg, scene, gram, cop = _cauchy_operator()
    d0, noise = _noisy_data(cfg, scene, cop, 1e-6, seed=3)
    chol, Wc = _whitened_reference(scene, gram, cop)
    U = np.linalg.svd(Wc, full_matrices=False)[0]
    nw = chol.T @ noise
    out = np.linalg.norm(nw - U @ (U.conj().T @ nw))
    assert cop.expand(d0 + noise).ridge_misfit(0.0) == pytest.approx(out, rel=1e-6)


def test_cauchy_h_block_does_not_depend_on_the_chunk_width(monkeypatch):
    _, scene, _, cop = _cauchy_operator()
    monkeypatch.setattr(experiments, "H_CHUNK", len(cop.b_dofs))
    whole = h_trace_block(scene.system, cop.h_dofs)
    monkeypatch.setattr(experiments, "H_CHUNK", 1)
    single = h_trace_block(scene.system, cop.h_dofs)
    assert np.abs(single - whole).max() <= 1e-13 * np.abs(whole).max()


def test_cauchy_singular_values_match_dense_reference():
    for over in GEOMETRIES:
        _, scene, gram, cop = _cauchy_operator(**over)
        S = sla.svdvals(_whitened_reference(scene, gram, cop)[1])
        # a wide W has fewer singular values than R_W, whose others are zero
        S = np.pad(S, (0, len(cop.S) - len(S)))
        assert np.abs(cop.S - S).max() <= 1e-10 * S.max(), over


def test_cauchy_split_matches_dense_reference():
    # left singular vectors are fixed up to a unitary map within each cluster
    # of equal singular values; expand of the reference vectors gives that
    # map M, so the coordinates must be M times the reference coordinates
    for over in GEOMETRIES:
        cfg, scene, gram, cop = _cauchy_operator(**over)
        chol, Wc = _whitened_reference(scene, gram, cop)
        U, S, _ = np.linalg.svd(Wc, full_matrices=False)
        ex_U = cop.expand(sla.solve_triangular(chol.T, U, lower=False))
        M, out_M = ex_U.coords, ex_U.out2
        assert np.abs(M.conj().T @ M - np.eye(len(S))).max() <= 1e-10
        assert np.abs(cop.S[:, None] * M - M * S[None, :]).max() <= 1e-10 * S.max()
        assert np.sqrt(out_M.max()) <= 1e-8
        d0, noise = _noisy_data(cfg, scene, cop, 1e-2, seed=4)
        d = d0 + noise
        dw = chol.T @ d
        ud_ref = U.conj().T @ dw
        out_ref = np.linalg.norm(dw - U @ ud_ref) ** 2
        ex = cop.expand(d)
        ud, out2 = ex.coords, ex.out2
        assert np.linalg.norm(ud - M @ ud_ref) <= 1e-10 * np.linalg.norm(ud_ref)
        assert out2 == pytest.approx(out_ref, rel=1e-8)
        block = cop.expand(np.stack([d, d0], axis=1))
        block_ud, block_out2 = block.coords, block.out2
        assert np.abs(block_ud[:, 0] - ud).max() <= 1e-14 * np.abs(ud).max()
        assert block_out2[0] == pytest.approx(out2, rel=1e-12)



def test_bidiagonal_svd_matches_dense_svd():
    # a graded upper triangle: singular values from 1 down to 1e-9, the spread
    # of the reference scene's R_W (1.1e-9)
    rng = np.random.default_rng(2)
    n = 200
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    A = np.linalg.qr((Q1 * np.logspace(0, -9, n)) @ Q2.T)[1]
    U, S, Vt = sla.svd(A)
    svd = runge_op.BidiagonalSvd(A.copy(order="F"))
    assert np.all(np.abs(svd.S - S) <= 1e-13 * S)
    # singular vectors are fixed up to sign; V's columns give each sign
    V = svd.right(np.eye(n))
    sign = np.sign(np.sum(V * Vt.T, axis=0))
    assert np.abs(V - Vt.T * sign).max() <= 1e-10
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for d, coords in ((b, svd.coords(b[:, None].copy(order="F"))[:, 0]),
                      (B, svd.coords(np.asfortranarray(B.real))
                       + 1j * svd.coords(np.asfortranarray(B.imag)))):
        ref = U.T @ d
        assert np.linalg.norm(coords - (sign * ref.T).T) <= 1e-10 * np.linalg.norm(ref)
        for lam in (1e-12, 1e-6, 1e-2):
            filt = (S / (S ** 2 + lam)).reshape((n,) + (1,) * (d.ndim - 1))
            ridge_ref = Vt.T @ (filt * ref)
            ridge = runge_op.Expansion(svd.S, svd.right, coords, 0.0).ridge(lam)
            assert np.linalg.norm(ridge - ridge_ref) <= 1e-10 * np.linalg.norm(ridge_ref)


def _graded_triangle(n, seed=2):
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return np.linalg.qr((Q1 * np.logspace(0, -9, n)) @ Q2.T)[1]


def _split_bidiagonal():
    # exact zeros on the superdiagonal split B into blocks of 30 and 29 rows,
    # both past SMLSIZ, and a trailing 1 x 1 block with a negative entry
    rng = np.random.default_rng(5)
    d, e = rng.standard_normal(60), rng.standard_normal(59)
    e[29] = e[58] = 0.0
    d[59] = -abs(d[59])
    return np.diag(d) + np.diag(e, 1)


def _rank_deficient_triangle():
    # rank 20 of 60: dgebrd leaves entries at rounding, which split B into
    # 1 x 1 blocks and blocks of every kind
    rng = np.random.default_rng(6)
    return np.linalg.qr(rng.standard_normal((60, 20)) @ rng.standard_normal((20, 60)))[1]


@pytest.mark.parametrize("make", [
    _split_bidiagonal, _rank_deficient_triangle,
    lambda: _graded_triangle(3), lambda: _graded_triangle(25), lambda: _graded_triangle(26),
    lambda: np.zeros((4, 4))],
    ids=["zero_superdiagonal", "rank_deficient", "n3", "n25", "n26", "zero"])
def test_bidiagonal_svd_blocks_match_numpy(make):
    A = make()
    n = len(A)
    S_ref = np.linalg.svd(A, compute_uv=False)
    svd = runge_op.BidiagonalSvd(A.copy(order="F"))
    top = S_ref[0] or 1.0
    assert np.all(np.abs(svd.S - S_ref) <= 1e-13 * top)
    assert np.all(np.diff(svd.S) <= 0)
    # U^T and V from the columns of I: orthogonal, and U^T A V = diag(S)
    Ut, V = svd.coords(np.eye(n, order="F")), svd.right(np.eye(n))
    assert np.abs(Ut @ Ut.T - np.eye(n)).max() <= 1e-13 * n
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-13 * n
    assert np.abs(Ut @ A @ V - np.diag(svd.S)).max() <= 1e-13 * top
    # a vector is the block of one column
    y = np.arange(1.0, n + 1)
    assert np.array_equal(svd.right(y), svd.right(y[:, None]))


def test_cauchy_setup_holds_no_square_workspace():
    # at 10^3 (n_v = 1020, 1200 boundary columns) the dense Gram steps peaked
    # at 58 MB of traced memory and the operator at 80 MB before the Gram went
    # in place and the bidiagonal SVD into LAPACK's compact form (dbdsdc's
    # workspace alone was 34.6 MB, its explicit singular vectors 23 MB)
    cfg = load_config("cauchy_reference.json")
    scene = build_scene(cfg)
    tracemalloc.start()
    try:
        gram = rl.build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        CauchyOperator(scene, gram)
        operator_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert gram_peak < 40e6
    assert operator_peak < 50e6


def test_cython_lapack_calls_raise_typed_errors():
    # LDA = 1 < M = 3: LAPACK names the fourth argument
    a = np.zeros((3, 3), order="F")
    with pytest.raises(NumericError, match="^LAPACK dgebrd returned info -4$"):
        runge_op._lapack_work("dgebrd", 3, 3, a, 1, *(np.zeros(3) for _ in range(4)))
    # no pointer into an array LAPACK would read in the wrong order or past its end
    with pytest.raises(TypeError, match="Fortran"):
        runge_op._lapack_work("dgebrd", 3, 3, np.zeros((3, 3)), 3,
                              *(np.zeros(3) for _ in range(4)))
    with pytest.raises(ValueError, match="square"):
        runge_op.BidiagonalSvd(np.zeros((3, 2), order="F"))
    with pytest.raises(ValueError, match="needs 3 rows"):
        runge_op.BidiagonalSvd(np.eye(3, order="F")).coords(np.zeros((2, 1), order="F"))
    # no pointer into an array shorter than what the routine touches
    block = runge_op.BidiagonalSvd(_split_bidiagonal().copy(order="F"))._blocks[0][2]
    with pytest.raises(ValueError, match="^LAPACK dlalsa touches 60 entries of an array of 58$"):
        block.apply(1, np.zeros((29, 2), order="F"))

def test_cauchy_discretization_probe_matches_convergence_study():
    cfg = _cauchy_cfg(noise={"etas": [1e-2], "seeds": [3]})
    rep = run_cauchy(cfg)
    grid = rl.build_grid(cfg["grid"]["n"], cfg["grid"]["h"])
    refined = rl.build_grid([2 * n for n in grid.n], grid.h / 2)
    probe = rl.plane_wave([cfg["omega"], 0.0, 0.0], [0.0, 1.0, 0.0], cfg["omega"])
    rows = rl.convergence_study(probe, (experiments._assemble(
        cfg, g, rl.make_material(g, cfg["material"])) for g in (grid, refined)))
    assert rep.budgets["forward_disc_rel_error"] == rows[0][1]


def _counting_assemble(monkeypatch):
    from rungelab import experiments

    calls = []
    assemble = experiments._assemble

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(experiments, "_assemble", counting)
    return calls


def test_cauchy_discretization_probe_uses_the_reference_medium(monkeypatch):
    # a vacuum probe on a smooth medium measures the medium mismatch (2.8e-2
    # against 9.9e-4 in vacuum on this scene), which loosens eta0_ok 28-fold
    noise = {"etas": [1e-2], "seeds": [3]}
    vacuum = run_cauchy(_cauchy_cfg(noise=noise)).budgets["forward_disc_rel_error"]
    calls = _counting_assemble(monkeypatch)
    smooth = run_cauchy(_cauchy_cfg(noise=noise, material={"kind": "smooth", "seed": 3,
                                                           "amplitude": 0.3}))
    assert len(calls) == 2  # the scene, then the reference medium's system
    assert smooth.budgets["forward_disc_rel_error"] <= 2 * vacuum


def test_cauchy_runs_on_a_constant_dielectric(monkeypatch):
    # eps mu != 1: the probe's wave number follows the medium's dispersion
    # relation, and the probe is solved on the scene's own system, also when
    # the cell means of eps round away from eps (0.3 reads deps = 1.9e-16)
    calls = _counting_assemble(monkeypatch)
    for eps in (2.0, 0.3):
        calls.clear()
        rep = run_cauchy(_cauchy_cfg(noise={"etas": [1e-2], "seeds": [3]},
                                     material={"kind": "constant", "eps": eps, "mu": 1.0}))
        assert len(calls) == 1, eps
        assert 0 < rep.budgets["forward_disc_rel_error"] < 1e-2
        assert rep.flags["eta0_ok"]


def test_cauchy_ladder_block_matches_single_columns():
    # run_cauchy reconstructs the noise ladder as one block; each record must
    # match the single-vector reconstruction of its (eta, seed)
    rep = run_cauchy(_cauchy_cfg())
    cfg, scene, gram, cop = _cauchy_operator()
    truth, _ = _cauchy_truth(cfg, scene)
    d0 = cop.data_of(truth)
    # column 0 of the block is the eta = 0 consistency run at the fixed lambda
    assert rep.records[0]["seed"] == -1
    assert rep.records[0]["lambda"] == cfg["regularization"]["lambda"]
    ladder = rep.records[1:]
    assert [(r["eta_rel"], r["seed"]) for r in ladder] == [
        (e, s) for e in cfg["noise"]["etas"] for s in cfg["noise"]["seeds"]]
    for rec in ladder:
        eta, rng = rec["eta_abs"], np.random.default_rng(rec["seed"])
        nf = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
        ng = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
        nf *= (eta / 2.0) / gram.v_norm(nf)
        ng *= (eta / 2.0) / gram.v_norm(ng)
        fields, lam, misfit = cauchy_reconstruct(cop, d0 + np.concatenate([nf, ng]),
                                                 "morozov", eta_target=eta)
        err = rl.hcurl_norm(scene.grid, scene.omega_region, E=fields.E - truth.E,
                            H=fields.H - truth.H, curl=scene.system.curl)
        assert rec["lambda"] == pytest.approx(lam, rel=1e-10, abs=0)
        assert rec["misfit"] == pytest.approx(misfit, rel=1e-10, abs=0)
        assert rec["error_hcurl"] == pytest.approx(err, rel=1e-10, abs=0)


def test_cauchy_morozov_clamps_per_column():
    cfg, scene, gram, cop = _cauchy_operator()
    truth, _ = _cauchy_truth(cfg, scene)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(2 * gram.n_v) + 1j * rng.standard_normal(2 * gram.n_v)
    d0 = cop.data_of(truth)
    d = d0 + 1e-3 * np.linalg.norm(d0) * noise / np.linalg.norm(noise)
    lo, hi = 1e-14, 1e6
    ex = cop.expand(d)
    at_lo, at_hi, inside = ex.ridge_misfit(lo), ex.ridge_misfit(hi), ex.ridge_misfit(1e-4)
    assert at_lo < inside < at_hi
    # zero data have a flat misfit curve: both clamps apply and lo wins
    block = cop.expand(np.column_stack([d, d, d, np.zeros_like(d)]))
    lam = block.discrepancy_lambda([0.5 * at_lo, 2.0 * at_hi, inside, 0.0], lo=lo, hi=hi)
    assert lam.shape == (4,)
    assert lam[0] == lo and lam[1] == hi and lam[3] == lo
    assert lam[2] == pytest.approx(ex.discrepancy_lambda(inside, lo=lo, hi=hi), rel=1e-10)
    assert lam[2] == pytest.approx(1e-4, rel=1e-6)


def test_cauchy_report_determinism_quick():
    a = run_cauchy(_cauchy_cfg())
    b = run_cauchy(normalize_config(a.config_echo))
    assert a.csv_text() == b.csv_text()
    assert a.fits_csv_text() == b.fits_csv_text()
    sa, sb = a.sidecar(), b.sidecar()
    sa.pop("volatile")
    sb.pop("volatile")
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


def test_localization_quotient_algebra(small_restriction):
    # with identical operators on both slots the quotient stays below one
    _, gram, _, op, _ = small_restriction
    rng = np.random.default_rng(8)
    f = rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v)
    q = _quotient(op, op, 1e-6, f)
    assert q < 1.0


def test_localization_rejects_overlap():
    cfg = normalize_config({
        "tag": "localization",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "regions": {"M": {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2},
                    "D": {"kind": "ball", "center": [0.55, 0.5, 0.5], "r": 0.2}},
    })
    with pytest.raises(GeometryError):
        run_localization(cfg)


def _localization_cfg():
    return normalize_config({
        "tag": "localization",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "patch": {"side": "x-", "collar": "exclude_rim"},
        "regions": {"M": {"kind": "ball", "center": [0.3, 0.5, 0.5], "r": 0.16},
                    "D": {"kind": "ball", "center": [0.72, 0.5, 0.5], "r": 0.16}},
        "localization": {"cutoffs": [5, 10], "n_random": 2, "seed": 0},
    })


def test_localization_shares_its_forward_solves(monkeypatch):
    from rungelab import runge_op

    cfg = _localization_cfg()
    solves, built = [], []
    solve_bvp, assemble_restriction = runge_op.solve_bvp, runge_op.assemble_restriction

    def counting_solve(*args):
        solves.append(1)
        return solve_bvp(*args)

    def keeping_assemble(*args):
        built.append((args, assemble_restriction(*args)))
        return built[-1][1]

    monkeypatch.setattr(runge_op, "solve_bvp", counting_solve)
    monkeypatch.setattr(runge_op, "assemble_restriction", keeping_assemble)
    run_localization(cfg)
    [((sys_, gram, v_m, v_d), (op_m, op_d))] = built
    assert len(solves) == gram.n_v

    monkeypatch.setattr(runge_op, "solve_bvp", solve_bvp)
    for v, op in ((v_m, op_m), (v_d, op_d)):
        alone = assemble_restriction(sys_, gram, v)
        assert op.matrix.tobytes() == alone.matrix.tobytes()
        assert op.provenance == alone.provenance
        assert op.gram is gram and op.volume is v


def test_drivers_build_one_trace_gram(monkeypatch):
    # localization restricts two regions through one trace side; Cauchy reads
    # traces only and needs no volume weights
    from rungelab import experiments

    built = []
    build_norm_weights, volume_weights = experiments.build_norm_weights, experiments.VolumeWeights
    monkeypatch.setattr(experiments, "build_norm_weights",
                        lambda *a, **k: built.append("gram") or build_norm_weights(*a, **k))
    monkeypatch.setattr(experiments, "VolumeWeights",
                        lambda *a, **k: built.append("volume") or volume_weights(*a, **k))
    run_localization(_localization_cfg())
    assert built == ["gram", "volume", "volume"]
    built.clear()
    run_cauchy(_cauchy_cfg())
    assert built == ["gram"]


def test_propagation_data_ball_contains_g():
    # G inside the data ball: the two-factor bound holds with delta = 1, C = 1
    cfg = normalize_config({
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
    with pytest.raises(GeometryError, match="^margin 0.15 exceeds r0/2 = 0.1;"):
        normalize_config({
            "tag": "propagation",
            "grid": {"n": [8, 8, 8], "h": 0.125},
            "regions": {"G": {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2}},
            "propagation": {"x0": [0.5, 0.5, 0.5], "r0": 0.2, "margin_h": 0.15},
        })


def test_report_determinism_quick():
    cfg = _cfg(three_balls={"n_samples": 5, "seed": 0})
    a = run_three_balls(cfg)
    b = run_three_balls(normalize_config(a.config_echo))
    assert a.csv_text() == b.csv_text()
    sa, sb = a.sidecar(), b.sidecar()
    sa.pop("volatile")
    sb.pop("volatile")
    assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


def test_propagation_reference_config():
    rep = run_propagation(load_config("propagation_reference.json"))
    assert rep.passed, rep.flags
    delta = rep.fits[0]["exponent"]
    assert 0.0 < delta < 1.0
    assert all(r["chain_count"] >= 2 for r in rep.records)


def test_localization_reference_config():
    rep = run_localization(load_config("localization_reference.json"))
    assert rep.passed, rep.flags
    assert rep.records[-1]["quotient"] > 10.0
    quotients = [r["quotient"] for r in rep.records]
    assert quotients == sorted(quotients)


def test_localization_pencil_matches_the_dense_grams(monkeypatch):
    # reference: the dense n_v x n_v Grams P = R_M^T W_M R_M and
    # Q = R_D^T W_D R_D + eps G_V, projected on the leading singular vectors
    from rungelab import runge_op

    built = []
    assemble_restriction = runge_op.assemble_restriction
    monkeypatch.setattr(runge_op, "assemble_restriction",
                        lambda *a: built.append(assemble_restriction(*a)) or built[-1])
    cfg = load_config("localization_reference.json")
    rep = run_localization(cfg)
    [(op_m, op_d)] = built
    eps_reg = cfg["localization"]["eps_reg"]
    P = op_m.matrix.T @ (op_m.volume.x_weights()[:, None] * op_m.matrix)
    Q = (op_d.matrix.T @ (op_d.volume.x_weights()[:, None] * op_d.matrix)
         + eps_reg * op_m.gram.chol_V @ op_m.gram.chol_V.T)
    P, Q = 0.5 * (P + P.T), 0.5 * (Q + Q.T)
    svd = runge_op.weighted_svd(op_m)
    phi = svd.right(np.eye(svd.rank))
    assert [r["cutoff"] for r in rep.records] == [10, 20, 48]
    for rec in rep.records:
        basis = phi[:, :rec["cutoff"]]
        Pk, Qk = basis.T @ P @ basis, basis.T @ Q @ basis
        dense = sla.eigh(0.5 * (Pk + Pk.T), 0.5 * (Qk + Qk.T), eigvals_only=True)[-1]
        assert rec["quotient"] == pytest.approx(dense, rel=1e-9)


def test_three_balls_smooth_material():
    cfg = normalize_config({
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
    sys_, gram, volume, op, svd = small_restriction
    sol = rl.plane_wave([2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
    W = np.concatenate(sample_dofs(sol, volume.region.grid, volume.x_edge_idx,
                                   volume.x_face_idx))
    ex = svd.expand(W)
    e_first = np.hypot(ex.truncate(svd.sigma[0])[1], np.sqrt(ex.out2))
    e_deep = np.hypot(ex.truncate(1e-8 * svd.sigma[0])[1], np.sqrt(ex.out2))
    assert e_deep < 0.05 * e_first


def test_runge_target_keeps_2h_from_its_region(small_restriction):
    # the Runge target is a dipole inside the box: region sampling checks the
    # 2h clearance on the sampled dofs only, not the whole-grid box rule
    _, _, volume, _, _ = small_restriction
    grid = volume.region.grid
    far = rl.dipole_field([0.9, 0.5, 0.5], [0.3, 0.4, 1.0], 2.0)  # 0.28 > 2h = 0.25
    E, H = sample_dofs(far, grid, volume.x_edge_idx, volume.x_face_idx)
    pts = grid.edge_midpoints()[volume.x_edge_idx]
    comp = grid.edge_components()[volume.x_edge_idx]
    assert np.array_equal(E, far.E(pts)[np.arange(len(pts)), comp])
    assert len(H) == len(volume.x_face_idx) and np.all(np.isfinite(H))
    with pytest.raises(GeometryError):
        rl.sample_on_grid(far, grid)
    near = rl.dipole_field([0.8, 0.5, 0.5], [0.3, 0.4, 1.0], 2.0)  # 0.19 < 2h
    with pytest.raises(GeometryError):
        sample_dofs(near, grid, volume.x_edge_idx, volume.x_face_idx)


def test_verify_uses_its_solver_block(monkeypatch):
    base = {"tag": "verify_solver", "grid": {"n": [4, 4, 4], "h": 0.25}, "omega": 2.0,
            "verify": {"levels": 2}, "tolerances": {"convergence_order": 1.5}}
    direct = run_verify_solver(normalize_config(
        dict(base, solver={"direct_limit": 10 ** 9})))

    factorizations = []
    splu = rl.solver.spla.splu
    monkeypatch.setattr(rl.solver.spla, "splu",
                        lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    krylov = run_verify_solver(normalize_config(
        dict(base, solver={"direct_limit": 0})))
    assert factorizations == []
    assert krylov.fits[0]["orders"] == pytest.approx(direct.fits[0]["orders"], abs=1e-8)
