"""Experiment drivers: approximation decay, Cauchy-data stability, three-ball
feasibility, propagation of smallness, and boundary-controlled localization.

Every driver consumes the plain dict ``normalize_config`` returns, runs
deterministically from the recorded seeds, and emits a Report (fixed-column
CSV plus a JSON sidecar echoing the config).  Estimated constants are always
fitted from the measured data, never assumed.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import analysis, geometry, materials, oracle, runge_op, solver
from .errors import BadVersionError, ConfigurationError, GeometryError, NumericError
from .analysis import (VolumeWeights, build_norm_weights, fit_holder, fit_log_modulus,
                       fit_power, hcurl_norm, lp_norm)

TAGS = ("runge", "cauchy", "three_balls", "propagation", "localization", "verify_solver")


# rules: (what a present value must be, its test); bools, strings and null are not numbers
_number = geometry.finite_number


def _int(least):
    return lambda v: type(v) is int and v >= least


def _list(item, n=None):
    """Test: a non-empty list, of ``n`` entries when given, whose entries pass ``item``."""
    return lambda v: (isinstance(v, list) and len(v) > 0 and len(v) == (n or len(v))
                      and all(map(item, v)))


def _one_of(*names):
    return f"one of {', '.join(names)}", lambda v: v in names


def _integer(least):
    return f"an integer >= {least}", _int(least)


_GT0 = "a finite number > 0", lambda v: _number(v) and v > 0
_GE0 = "a finite number >= 0", lambda v: _number(v) and v >= 0
_GT2 = "a finite number > 2", lambda v: _number(v) and v > 2
_POINT = "a list of three finite numbers", _list(_number, 3)
_SIDE = ("a side or a non-empty list of sides",
         lambda v: v in geometry.SIDES or _list(lambda s: s in geometry.SIDES)(v))
_TENSOR = ("a finite number, a list of three or a 3 x 3 list of finite numbers",
           lambda v: _number(v) or _list(_number, 3)(v) or _list(_list(_number, 3), 3)(v))
_MAT = materials.DEFAULTS


def _box(cfg):
    """Lower corner and edge lengths of the configured grid's box."""
    g = cfg["grid"]
    return np.asarray(g["origin"], dtype=float), np.array(g["n"]) * float(g["h"])


def _box_center(cfg):
    # halving is exact, so this is also origin + 0.5 n h bit for bit
    lo, size = _box(cfg)
    return (size / 2 + lo).tolist()


def _free_side(cfg):
    side = cfg["patch"]["side"]
    free = [s for s in geometry.SIDES if s not in ([side] if isinstance(side, str) else side)]
    if len(free) != 1:
        raise ConfigurationError(
            "truth.side is required unless the patch leaves exactly one side free")
    return free[0]


_REQUIRED = object()
# Every config key a driver reads, as (dotted key, default, readers, rule).
# For a config whose tag reads the key, an absent key takes the default (a
# callable derives it from the keys above it), or fails as "<tag> needs
# <key>" when _REQUIRED.  The readers are tags or "*" for every tag, each
# with ":kind" when it reads the key only if the key's section has that kind;
# a key no tag reads is optional.  The rule checks the key whenever it is
# present, whatever the tag.
_TABLE = (
    ("seed", 0, "*", _integer(0)),
    ("omega", 2.0, "*", _GT0),
    ("grid.n", [12, 12, 12], "*", ("three integers >= 4", _list(_int(4), 3))),
    ("grid.h", lambda c: 1.0 / c["grid"]["n"][0], "*", _GT0),
    ("grid.origin", [0.0, 0.0, 0.0], "*", _POINT),
    ("material.kind", "constant", "*", _one_of(*materials.KINDS)),
    ("material.eps", _MAT["eps"], "*:constant", _TENSOR),
    ("material.mu", _MAT["mu"], "*:constant *:layered", _TENSOR),
    ("material.axis", _MAT["axis"], "*:layered",
     ("0, 1 or 2", lambda v: type(v) is int and v in (0, 1, 2))),
    ("material.smoothing", _MAT["smoothing"], "*:layered", _GE0),
    ("material.breakpoints", _REQUIRED, "*:layered",
     ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_number, v)))),
    ("material.tensors", _REQUIRED, "*:layered",
     ("a non-empty list of tensors, each " + _TENSOR[0], _list(_TENSOR[1]))),
    ("material.seed", _MAT["seed"], "*:smooth", _integer(0)),
    ("material.amplitude", _MAT["amplitude"], "*:smooth",
     ("a number strictly inside (0, 1)", lambda v: _number(v) and 0 < v < 1)),
    ("material.modes", _MAT["modes"], "*:smooth", _integer(1)),
    ("material.max_wavenumber", _MAT["max_wavenumber"], "*:smooth", _integer(0)),
    ("patch.side", "x-", "*", _SIDE),
    ("patch.window", None, "*",
     ("null or [[lo1, lo2], [hi1, hi2]] of finite numbers",
      lambda v: v is None or _list(_list(_number, 2), 2)(v))),
    ("patch.collar", "exclude_rim", "*", _one_of("exclude_rim", "include_rim")),
    ("exponents.p", 4.0, "*", _GT2),
    ("exponents.q", 3.0, "*", _GT2),
    ("exponents.q0", 4.0, "*", _GT2),
    ("exponents.theta", None, "", _GT0),
    ("regions", {}, "*", None),
    # eta / (1 - eta) scales the noise, and the log fit needs etas in (0, 1)
    ("noise.etas", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], "*",
     ("a non-empty list of numbers strictly inside (0, 1)",
      _list(lambda e: _number(e) and 0 < e < 1))),
    ("noise.seeds", [101, 102, 103, 104, 105], "*",
     ("a non-empty list of integers >= 0", _list(_int(0)))),
    ("runge.js", list(range(1, 11)), "*",
     ("at least 3 strictly increasing integers >= 1",
      lambda v: _list(_int(1))(v) and len(v) >= 3 and all(np.diff(v) > 0))),
    ("runge.C", float(np.e), "*", _GT0),
    ("runge.m", 2.0, "*", _GT0),
    ("regions.A", _REQUIRED, "runge", None),
    ("runge.target", _REQUIRED, "runge", None),
    ("runge.target.kind", "dipole", "runge", _one_of("dipole", "plane_wave")),
    ("runge.target.x0", _REQUIRED, "runge:dipole", _POINT),
    ("runge.target.m", [0.0, 0.0, 1.0], "runge:dipole", _POINT),
    ("runge.target.k", _REQUIRED, "runge:plane_wave", _POINT),
    ("runge.target.p", _REQUIRED, "runge:plane_wave", _POINT),
    ("truth.kind", "far_side_bump", "cauchy", _one_of("far_side_bump", "dipole")),
    ("truth.side", _free_side, "cauchy:far_side_bump", _one_of(*geometry.SIDES)),
    ("truth.center", _box_center, "cauchy:far_side_bump", _POINT),
    ("truth.width", 0.25, "cauchy:far_side_bump", _GT0),
    ("truth.x0", _REQUIRED, "cauchy:dipole", _POINT),
    ("truth.m", [0, 0, 1.0], "cauchy:dipole", _POINT),
    ("regularization.strategy", "morozov", "*", _one_of("morozov", "fixed")),
    ("regularization.lambda", 1e-12, "*", _GE0),
    ("three_balls.center", _box_center, "three_balls", _POINT),
    ("three_balls.r1", 0.12, "three_balls", _GT0),
    ("three_balls.r2", 0.21, "three_balls", _GT0),
    ("three_balls.r3", 0.45, "three_balls", _GT0),
    ("three_balls.m0", 0.0, "three_balls", _GE0),
    # the Holder fit needs three samples
    ("three_balls.n_samples", 20, "three_balls", _integer(3)),
    ("three_balls.seed", None, "", _integer(0)),
    ("propagation.x0", _REQUIRED, "propagation", _POINT),
    ("propagation.r0", _REQUIRED, "propagation", _GT0),
    ("propagation.margin_h", _REQUIRED, "propagation", _GT0),
    ("regions.G", _REQUIRED, "propagation", None),
    ("propagation.n_paths", 3, "propagation", _integer(1)),
    ("propagation.n_samples", 12, "propagation", _integer(3)),
    ("propagation.seed", None, "", _integer(0)),
    ("regions.M", _REQUIRED, "localization", None),
    ("regions.D", _REQUIRED, "localization", None),
    ("localization.cutoffs", [10, 20, 50], "localization",
     ("a non-empty list of positive integers", _list(_int(1)))),
    ("localization.eps_reg", 1e-6, "localization", _GT0),
    ("localization.n_random", 5, "localization", _integer(0)),
    ("localization.seed", None, "", _integer(0)),
    ("solver.resonance_threshold", solver.RESONANCE_THRESHOLD, "*", _GT0),
    ("solver.tol", solver.SOLVER_TOL, "*", _GT0),
    # verify solves one right-hand side per system: the Krylov path is cheaper
    ("solver.direct_limit", lambda c: 0 if c["tag"] == "verify_solver" else solver.DIRECT_LIMIT,
     "*", _integer(0)),
    ("verify.levels", 3, "*", _integer(2)),
    ("verify.wave.k", lambda c: [float(c["omega"]), 0.0, 0.0], "verify_solver", _POINT),
    ("verify.wave.p", [0.0, 1.0, 0.0], "verify_solver", _POINT),
    ("output.dir", "out", "*", None),
    ("cache.dir", None, "*", None),
    ("tolerances.convergence_order", 1.8, "*", _GE0),
    ("tolerances.mimetic_nnz", 0, "*", _integer(0)),
    ("tolerances.r2_log_modulus", 0.8, "*", _GE0),
    ("tolerances.r2_growth", 0.9, "*", _GE0),
    ("tolerances.strict_decreases", 6, "*", _integer(0)),
    ("tolerances.quotient_min", 10.0, "*", _GE0),
    ("tolerances.eta0_factor", 10.0, "*", _GE0),
    ("tolerances.holder_residual_max", 0.0, "*", _GE0),
)
# keys no longer read, and where their entries go instead
_REMOVED = {"regions.balls": "three_balls {center, r1, r2, r3} and propagation {x0, r0, margin_h}",
            "material.params": "material itself"}


def _lookup(cfg, key, create=False):
    """(section, leaf) of a dotted key; an absent section reads as empty and
    is added when ``create``, and a present one must be a JSON object."""
    *path, leaf = key.split(".")
    for i, part in enumerate(path):
        cfg = cfg.setdefault(part, {}) if create else cfg.get(part, {})
        if not isinstance(cfg, dict):
            raise ConfigurationError(
                f"config section {'.'.join(path[:i + 1])} must be a JSON object, got {cfg!r}")
    return cfg, leaf


def normalize_config(raw: dict) -> dict:
    """Fill and check every key of ``_TABLE`` and the cross-field invariants,
    before any assembly; returns a plain dict that re-normalizes to itself."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    tag = cfg.get("tag")
    if tag not in TAGS:
        raise ConfigurationError(f"config field 'tag' must be one of {TAGS}, got {tag!r}")
    for key, home in _REMOVED.items():
        section, leaf = _lookup(cfg, key)
        if leaf in section:
            raise ConfigurationError(f"config key {key} was removed; set its entries in {home}")

    missing = []
    for key, default, readers, rule in _TABLE:
        if any(key.startswith(m + ".") for m in missing):
            continue  # under a missing key
        section, leaf = _lookup(cfg, key)
        kind = section.get("kind")
        if leaf not in section and any(r in ("*", tag, f"{tag}:{kind}", f"*:{kind}")
                                       for r in readers.split()):
            if default is _REQUIRED:
                missing.append(key)
                continue
            section, _ = _lookup(cfg, key, create=True)
            section[leaf] = default(cfg) if callable(default) else copy.deepcopy(default)
        if rule and leaf in section and not rule[1](section[leaf]):
            raise ConfigurationError(f"{key} must be {rule[0]}, got {section[leaf]!r}")

    exps = cfg["exponents"]
    p, q, q0 = (float(exps[k]) for k in ("p", "q", "q0"))
    if not q < q0 <= p:
        raise ConfigurationError(f"need 2 < q < q0 <= p, got q={q}, q0={q0}, p={p}")
    theta = (1.0 / q - 0.5) / (1.0 / q0 - 0.5)
    if abs(exps.get("theta", theta) - theta) > 1e-9:
        raise ConfigurationError(
            f"exponents.theta={exps['theta']} contradicts the identity "
            f"1/q = (1-theta)/2 + theta/q0, which gives theta={theta:.12g}")
    exps["theta"] = theta
    if missing:
        raise ConfigurationError(f"{tag} needs {', '.join(missing)}")
    mat = cfg["material"]
    if mat["kind"] == "layered" and len(mat["tensors"]) != len(mat["breakpoints"]) + 1:
        raise ConfigurationError(
            f"material.tensors must hold one entry more than material.breakpoints, got "
            f"{len(mat['tensors'])} and {len(mat['breakpoints'])}")
    for name, shape in cfg["regions"].items():
        geometry.check_shape(shape, f"regions.{name}")
    if tag == "three_balls":
        r1, r2, r3 = (float(cfg["three_balls"][k]) for k in ("r1", "r2", "r3"))
        if not (r1 < r2 < r3 / 2):
            raise GeometryError(f"need r1 < r2 < r3/2, got {r1}, {r2}, {r3}")
        lo, size = _box(cfg)
        center = np.asarray(cfg["three_balls"]["center"])
        if np.any(center - r3 < lo) or np.any(center + r3 > lo + size):
            raise GeometryError("outer ball must sit inside the box")
    if tag == "propagation":
        r0, margin_h = float(cfg["propagation"]["r0"]), float(cfg["propagation"]["margin_h"])
        if margin_h > r0 / 2:
            raise GeometryError(
                f"margin {margin_h:g} exceeds r0/2 = {r0 / 2:g}; the hypotheses conflict")
    return cfg


_COLUMNS = {
    "verify_solver": ["level", "h", "rel_error", "order"],
    "runge": ["j", "alpha", "kept", "x_error", "tail_error", "out_of_span",
              "v_norm", "v_bound", "hcurl_omega"],
    "cauchy": ["eta_rel", "eta_abs", "seed", "lambda", "misfit", "error_hcurl", "error_rel"],
    "three_balls": ["sample", "seed", "a1", "a2", "a3", "m0"],
    "propagation": ["sample", "seed", "ball_norm", "g_norm", "omega_norm",
                    "chain_count", "cover_count"],
    "localization": ["cutoff", "quotient", "norm_m", "norm_d", "norm_omega"],
}


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


class Report:
    """Structured experiment output: records, fits and pass/fail flags."""

    def __init__(self, tag, config, records, fits, flags, budgets=None):
        self.tag = tag
        self.config_echo = json.loads(json.dumps(config))
        self.columns = _COLUMNS[tag]
        self.records = records
        self.fits = fits
        self.flags = flags
        self.budgets = budgets or {}
        self.wall_clock = 0.0  # set by run_experiment
        for rec in records:
            for col in self.columns:
                v = rec[col]
                if isinstance(v, (float, np.floating)) and not np.isfinite(v):
                    raise ConfigurationError(f"non-finite value in report column {col}")

    @property
    def passed(self):
        return all(self.flags.values())

    def csv_text(self):
        lines = [",".join(self.columns)]
        for rec in self.records:
            lines.append(",".join(_fmt(rec[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def fits_csv_text(self):
        lines = ["model,C,tau_or_delta_or_m,r2,n"]
        for fit in self.fits:
            if "exponent" not in fit:
                continue
            lines.append(",".join(_fmt(fit[c]) for c in ("model", "C", "exponent",
                                                         "r2", "n")))
        return "\n".join(lines) + "\n"

    def sidecar(self):
        return {
            "tag": self.tag,
            "config": self.config_echo,
            "fits": self.fits,
            "flags": self.flags,
            "budgets": self.budgets,
            "volatile": {"wall_clock_s": round(self.wall_clock, 3)},
        }

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        csv_path = os.path.join(outdir, f"{self.tag}.csv")
        side_path = os.path.join(outdir, f"{self.tag}.json")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.csv_text())
        if any("exponent" in f for f in self.fits):
            with open(os.path.join(outdir, f"{self.tag}_fits.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(self.fits_csv_text())
        with open(side_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.sidecar(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path, side_path


# ---------------------------------------------------------------------------
# scene construction
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    grid: geometry.Grid
    material: materials.MaterialField
    system: solver.SystemMatrix
    patch: geometry.BoundaryPatch
    omega_region: geometry.Region
    regions: dict  # every regions.<name> of the config, carved


def _assemble(cfg: dict, grid, mat) -> solver.SystemMatrix:
    """The one place where a config's ``solver`` section becomes keywords."""
    slv = cfg["solver"]
    return solver.assemble(grid, mat, cfg["omega"],
                           resonance_threshold=slv["resonance_threshold"],
                           solver_tol=slv["tol"], direct_limit=slv["direct_limit"])


def build_scene(cfg: dict, targets=(), check=None) -> Scene:
    """The grid, patch, regions, material and assembled system of a config.

    The patch and the regions come first, so that a window off its side, an
    empty region, a bad restriction target in ``targets`` or a failed
    ``check(grid, regions)``, a driver's own region hypotheses, stop the run
    before assembly."""
    g = geometry.build_grid(cfg["grid"]["n"], cfg["grid"]["h"], cfg["grid"]["origin"])
    patch = geometry.boundary_patch(g, cfg["patch"]["side"], cfg["patch"]["window"])
    regions = {name: geometry.carve_region(g, shape, f"regions.{name}")
               for name, shape in cfg["regions"].items()}
    for name in targets:
        regions[name].require_target(f"regions.{name}")
    if check is not None:
        check(g, regions)
    mat = materials.make_material(g, cfg["material"])
    sys_ = _assemble(cfg, g, mat)
    return Scene(g, mat, sys_, patch, geometry.Region(g, np.ones(g.n, dtype=bool)), regions)


def _operator_with_cache(cfg, scene, gram, volume):
    """The restriction operator, read from ``cache.dir`` when an envelope of
    the current version holds it; a missing entry or one written under an
    older envelope version is rebuilt and (re)written."""
    cache_dir = cfg["cache"]["dir"]
    if not cache_dir:
        return runge_op.assemble_restriction(scene.system, gram, volume)
    os.makedirs(cache_dir, exist_ok=True)
    prov = runge_op.operator_provenance(scene.system, gram, volume)
    path = os.path.join(cache_dir, f"operator-{prov:016x}.rgfo")
    if os.path.exists(path):
        try:
            return runge_op.load_operator(path, gram, volume, scene.system)
        except BadVersionError:
            pass
    op = runge_op.assemble_restriction(scene.system, gram, volume)
    runge_op.save_operator(op, path)
    return op


# ---------------------------------------------------------------------------
# verify_solver
# ---------------------------------------------------------------------------

def run_verify_solver(cfg: dict) -> Report:
    """Plane-wave convergence over nested refinements plus the mimetic check."""
    base, wave, kind = cfg["grid"], cfg["verify"]["wave"], cfg["material"].get("kind")
    if kind != "constant":
        raise ConfigurationError(
            f"verify compares with a plane wave in a constant medium, not kind {kind!r}")
    sol = oracle.plane_wave(wave["k"], wave["p"], float(cfg["omega"]),
                            *materials.scalar_medium(cfg["material"]))
    grids = [geometry.build_grid([v * 2 ** lvl for v in base["n"]], base["h"] / 2 ** lvl,
                                 base["origin"]) for lvl in range(cfg["verify"]["levels"])]
    rows = oracle.convergence_study(sol, (_assemble(cfg, g, materials.make_material(
        g, cfg["material"])) for g in grids))

    records = [{"level": lvl, "h": h, "rel_error": err, "order": 0.0 if order is None else order}
               for lvl, (h, err, order) in enumerate(rows)]
    defect = solver.mimetic_defect(grids[0])
    orders = [r[2] for r in rows if r[2] is not None]
    tol = cfg["tolerances"]
    flags = {
        "convergence_order_ok": bool(min(orders) >= tol["convergence_order"]),
        "mimetic_ok": bool(defect.nnz <= tol["mimetic_nnz"]),
    }
    fits = [{"model": "observed_orders", "orders": orders}]
    return Report("verify_solver", cfg, records, fits, flags)


# ---------------------------------------------------------------------------
# runge decay
# ---------------------------------------------------------------------------

def run_runge(cfg: dict, scene: Scene | None = None,
              svd: runge_op.SvdBundle | None = None) -> Report:
    """Truncated-approximant error decay and boundary-cost growth over the
    calibration ladder alpha(j)."""
    scene = scene or build_scene(cfg, ["A"])
    if svd is None:
        gram = build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
        op = _operator_with_cache(cfg, scene, gram, VolumeWeights(scene.regions["A"]))
        svd = runge_op.weighted_svd(op)

    spec, medium = cfg["runge"]["target"], materials.scalar_medium(cfg["material"])
    target = (oracle.dipole_field(spec["x0"], spec["m"], cfg["omega"], *medium)
              if spec["kind"] == "dipole" else
              oracle.plane_wave(spec["k"], spec["p"], cfg["omega"], *medium))
    W = np.concatenate(oracle.sample_dofs(target, scene.grid, svd.volume.x_edge_idx,
                                          svd.volume.x_face_idx))
    ex = runge_op.expand_target(svd, W)
    out_of_span = float(np.sqrt(ex.out2))
    coeff_norm = np.sqrt(np.sum(np.abs(ex.coords) ** 2))

    theta = cfg["exponents"]["theta"]
    C_cal = float(cfg["runge"]["C"])
    m_cal = float(cfg["runge"]["m"])
    js = [int(j) for j in cfg["runge"]["js"]]
    sigma1 = float(svd.sigma[0])

    records = []
    bound_ok = True
    for j in js:
        alpha = min(runge_op.alpha_for_j(j, C_cal, theta, m_cal), sigma1)
        data, tail, kept = ex.truncate(alpha)
        x_err = float(np.hypot(tail, out_of_span))
        v_norm = svd.gram.v_norm(data)
        v_bound = float(coeff_norm / alpha)  # termwise: ||R_alpha W||_V <= ||c|| / alpha
        if v_norm > v_bound * (1 + 1e-12):
            bound_ok = False
        # one solve per j: the benchmark's tracer self-test counts these calls
        fields = solver.solve_bvp(scene.system, svd.gram.trace(data))
        g_norm = hcurl_norm(scene.grid, scene.omega_region, E=fields.E, H=fields.H,
                            curl=scene.system.curl)
        records.append({"j": j, "alpha": alpha, "kept": kept, "x_error": x_err,
                        "tail_error": float(tail), "out_of_span": out_of_span,
                        "v_norm": v_norm, "v_bound": v_bound, "hcurl_omega": g_norm})

    errs = [r["x_error"] for r in records]
    vs = [r["v_norm"] for r in records]
    growth = [r["hcurl_omega"] for r in records]
    nonincreasing = all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
    # longest run of consecutive strict decrements
    run = strict = 0
    for a, b in zip(errs, errs[1:]):
        run = run + 1 if b < a * (1 - 1e-12) else 0
        strict = max(strict, run)
    v_nondecreasing = all(b >= a * (1 - 1e-12) for a, b in zip(vs, vs[1:]))

    fits = []
    pos = [(j, e) for j, e in zip(js, errs) if e > 0]
    if len(pos) >= 2:
        fits.append(fit_power(pos).row())
    x = np.array([float(j) ** (2.0 / m_cal) for j in js])
    slope, intercept, r2_growth = analysis.fit_line(x, np.log(np.maximum(growth, 1e-300)))
    fits.append({"model": "exp_growth", "C": float(np.exp(intercept)),
                 "rate": float(slope), "r2": float(r2_growth), "n": len(js)})

    tol = cfg["tolerances"]
    flags = {
        "error_nonincreasing": bool(nonincreasing),
        "strict_decreases_ok": bool(strict >= tol["strict_decreases"]),
        "v_norm_nondecreasing": bool(v_nondecreasing),
        "termwise_bound_ok": bool(bound_ok),
        "growth_rate_positive": bool(slope > 0),
        "growth_r2_ok": bool(r2_growth >= tol["r2_growth"]),
    }
    return Report("runge", cfg, records, fits, flags)


# ---------------------------------------------------------------------------
# cauchy stability
# ---------------------------------------------------------------------------

# Columns per H-trace solve: at 10^3 (1,080 columns, one BLAS thread, median
# of five) the vacuum block's batched transform took 0.23 s in chunks of 64,
# 0.25-0.27 s in chunks of 32, 128 or 256 and 0.32 s in chunks of 16 or one
# block; against the LU (other media), 0.38 s in chunks of 64 and 0.47 s in
# one block.  Chunks never hold the 21 MB dense right-hand side or its
# solution whole.
H_CHUNK = 64
QR_BLOCK = 32  # dtpqrt block size: the fastest of 8-64 at 10^3


def _lapack(name, *args, **kwargs):
    """Call a scipy LAPACK wrapper; raise NumericError on a nonzero info."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {name} returned info {info}")
    return out


def h_trace_block(sys_: solver.SystemMatrix, h_dofs):
    """Real block R whose column j times i is H[h_dofs] for unit data on the
    j-th boundary edge (``idx_boundary`` order).

    L is real symmetric, so unit data give a real E and
    H = P C E / (i omega) = i (-P C E / omega).  The boundary columns that
    couple to an interior edge are solved ``H_CHUNK`` at a time, each chunk cut
    from the sparse -L_IB and its P C_I E added into R in place; the others
    (the edge lines of the box) leave the interior field zero.  Lifting whole
    fields by ``solve_bvp`` instead took 72 ms at 10^3 in chunks of 64
    against 41 ms here (one BLAS thread), about 4% of a reference Cauchy run.
    """
    live = np.flatnonzero(sys_.L_IB.getnnz(axis=0))
    rhs = -sys_.L_IB.tocsc()
    PC = (sys_.mu_inv_point @ sys_.curl)[h_dofs]
    PC_I = PC[:, sys_.idx_interior]
    R = PC[:, sys_.idx_boundary].toarray()
    for cols in np.split(live, range(H_CHUNK, len(live), H_CHUNK)):
        R[:, cols] += PC_I @ sys_.solve_interior(rhs[:, cols].toarray())
    return R / -sys_.omega


class CauchyOperator:
    """Trace operator of the discrete solution manifold, parametrized by the
    full boundary data, with its whitened SVD; ``expand`` hands data on it to
    the spectral-filter kernel for the ridge solve and the Morozov bisection.

    T = [T_E; T_H] maps boundary data to the E and H traces on the patch.
    T_E is a 0/1 selection and T_H = i R with R real (``h_trace_block``), so
    the whitened operator diag(L^T, L^T) T rsq equals Q W with
    Q = diag(I, iI) unitary and W real (G_V = L L^T, rsq = reg^(-1/2) with
    reg I the Tikhonov Gram).  Data are whitened straight into the
    frame of W by Q^H diag(L^T, L^T).  With the patch columns first, W is the
    upper triangle [L^T, 0] (padded with zero rows) over the block L^T R, so
    a triangular-pentagonal QR (LAPACK ``dtpqrt``) factors it in place and
    keeps Q_W as Householder vectors; R_W = U S V^T is square, so Q_W U spans
    the range of W and ``_split`` reads exact coordinates on it.

    Methods taking data ``d`` accept a (2 n_v,) vector or a (2 n_v, k) block;
    per-column results are scalars for a vector and (k,) arrays for a block.
    """

    def __init__(self, scene: Scene, gram: analysis.TraceGram):
        self.scene = scene
        self.gram = gram
        sys_ = scene.system
        # the whole boundary's edge dofs are idx_boundary, the frame of R
        self.boundary = geometry.whole_boundary(scene.grid)
        self.b_dofs = sys_.idx_boundary
        nb, n = len(self.b_dofs), gram.n_v
        self.h_dofs = gram.patch.inward_faces[gram.v_sel]

        # Tikhonov Gram on the unknown data: reg I, one area weight h^2 per edge
        self.reg = scene.grid.h ** 2
        # misfit Gram: the boundary surrogate on both trace channels;
        # whitening applies the transposed factor, ||v||_G = ||L^T v||
        self._Lt = gram.chol_V.T
        e_rows = np.searchsorted(self.b_dofs, gram.v_dofs)
        perm = np.concatenate([e_rows, np.setdiff1d(np.arange(nb), e_rows)])
        rsq = 1.0 / np.sqrt(self.reg)
        top = np.zeros((nb, nb), order="F")  # Fortran order: dtpqrt overwrites it
        top[:n, :n] = self._Lt * rsq
        H = self._Lt @ h_trace_block(sys_, self.h_dofs)[:, perm] * rsq
        top, self._qv, self._qt = _lapack("dtpqrt", 0, QR_BLOCK, top, H,
                                          overwrite_a=True, overwrite_b=True)
        self._U, self.S, Vt = sla.svd(top, full_matrices=False, overwrite_a=True,
                                      check_finite=False)
        self.V = Vt.T[np.argsort(perm)]

    def data_of(self, fields):
        """Trace data of a FieldPair, a column per field of a block."""
        return np.concatenate([fields.E[self.gram.v_dofs], fields.H[self.h_dofs]])

    def misfit_norm(self, v):
        w2 = np.sum(self._white(v).reshape(self.gram.n_v, 4, -1) ** 2, axis=(0, 1))
        return np.sqrt(w2).reshape(np.shape(v)[1:])[()]

    def _white(self, d):
        """Q^H diag(L^T, L^T) d, the whitened data in the real frame of W, as
        (n_v, 4k) real columns: E channel real and imaginary parts, then H's."""
        n = self.gram.n_v
        f, g = d[:n].reshape(n, -1), d[n:].reshape(n, -1)
        # -i g = g.imag - i g.real; one GEMM over every column
        return self._Lt @ np.column_stack([f.real, f.imag, g.imag, -g.real])

    def _split(self, d):
        """Coordinates of the whitened data on the left singular vectors, and
        the squared norm of its part outside their span: the last n_v rows of
        Q_W^T w, exact where a difference ||w||^2 - ||ud||^2 would cancel
        (data almost in the span, the low-noise end of the study)."""
        w = self._white(d)
        nb, k = len(self.b_dofs), w.shape[1] // 4
        top = np.zeros((nb, 2 * k), order="F")
        top[:self.gram.n_v] = w[:, :2 * k]
        top, low = _lapack("dtpmqrt", 0, self._qv, self._qt, top, w[:, 2 * k:], trans="T",
                           overwrite_a=True, overwrite_b=True)
        ud, out2 = self._U.T @ top, np.sum(low ** 2, axis=0)
        return ((ud[:, :k] + 1j * ud[:, k:]).reshape((nb,) + d.shape[1:]),
                (out2[:k] + out2[k:]).reshape(d.shape[1:])[()])

    def expand(self, d):
        """The data on the whitened singular system, as a spectral-filter
        kernel; its solutions times reg^(-1/2) are boundary data."""
        return runge_op.Expansion(self.S, self.V, *self._split(d))


def cauchy_reconstruct(cauchy_op: CauchyOperator, noisy_f, noisy_g, strategy,
                       lam_fixed=1e-12, eta_target=None):
    """Least-squares data completion over the discrete solution manifold.

    Minimizes the patch misfit of both trace channels plus a Tikhonov term on
    the unknown boundary data; lambda comes from the discrepancy principle
    (match misfit to the noise size) or is fixed by config.  ``noisy_f`` and
    ``noisy_g`` are (n_v,) vectors, or (n_v, k) blocks reconstructed together
    with one noise size per column in ``eta_target``; a block returns a
    FieldPair of blocks and (k,) arrays of lambda and misfit.
    """
    if strategy not in ("morozov", "fixed"):
        raise ConfigurationError(f"unknown regularization strategy {strategy!r}")
    d = np.concatenate([noisy_f, noisy_g])
    eta = np.broadcast_to(0.0 if eta_target is None else eta_target, d.shape[1:])
    lam = np.full(d.shape[1:], float(lam_fixed))
    ex = cauchy_op.expand(d)
    if strategy == "morozov" and np.any(eta > 0):
        lam = np.where(eta > 0, ex.discrepancy_lambda(eta), lam)
    fields = solver.solve_bvp(cauchy_op.scene.system, solver.TangentialTrace(
        cauchy_op.boundary, ex.ridge(lam) / np.sqrt(cauchy_op.reg)))
    misfit = cauchy_op.misfit_norm(cauchy_op.data_of(fields) - d)
    return fields, lam[()], misfit


def _cauchy_truth(cfg, scene: Scene):
    spec = cfg["truth"]
    if spec["kind"] == "far_side_bump":
        far = geometry.boundary_patch(scene.grid, spec["side"])
        pts = scene.grid.edge_midpoints()[far.edge_dofs]
        center = np.asarray(spec["center"])
        width = float(spec["width"])
        prof = np.exp(-np.sum((pts - center) ** 2, axis=1) / (2 * width ** 2))
        values = prof.astype(complex) * (1.0 + 0.5j)
        truth = solver.solve_bvp(scene.system, solver.TangentialTrace(far, values))
        return truth, "discrete"
    sol = oracle.dipole_field(spec["x0"], spec["m"], cfg["omega"],
                              *materials.scalar_medium(cfg["material"]))
    return oracle.sample_on_grid(sol, scene.grid), "analytic"


def run_cauchy(cfg: dict) -> Report:
    """Noise-ladder reconstruction study of the two-trace Cauchy problem."""
    scene = build_scene(cfg)
    gram = build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
    cop = CauchyOperator(scene, gram)

    truth, truth_kind = _cauchy_truth(cfg, scene)
    p = cfg["exponents"]["p"]
    zeta = lp_norm(scene.grid, scene.omega_region, p, E=truth.E) \
        + lp_norm(scene.grid, scene.omega_region, p, H=truth.H)
    truth_hcurl = hcurl_norm(scene.grid, scene.omega_region, E=truth.E, H=truth.H,
                             curl=scene.system.curl)
    d0 = cop.data_of(truth)
    f0 = d0[:gram.n_v]
    g0 = d0[gram.n_v:]

    strategy = cfg["regularization"]["strategy"]
    lam_fixed = float(cfg["regularization"]["lambda"])

    # eta = 0 consistency run
    rec0, lam0, mis0 = cauchy_reconstruct(cop, f0, g0, "fixed", lam_fixed=lam_fixed)
    err0 = hcurl_norm(scene.grid, scene.omega_region, E=(rec0.E - truth.E),
                      H=(rec0.H - truth.H), curl=scene.system.curl)
    records = [{"eta_rel": 0.0, "eta_abs": 0.0, "seed": -1, "lambda": lam0,
                "misfit": mis0, "error_hcurl": err0, "error_rel": err0 / truth_hcurl}]

    etas = [float(e) for e in cfg["noise"]["etas"]]
    seeds = [int(s) for s in cfg["noise"]["seeds"]]
    eta_abs = [eta_rel * zeta / (1.0 - eta_rel) for eta_rel in etas]
    # each seed's noise is drawn once and scaled per eta
    nfs, ngs = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        nfs.append(rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v))
        ngs.append(rng.standard_normal(gram.n_v) + 1j * rng.standard_normal(gram.n_v))
    vfs, vgs = [gram.v_norm(n) for n in nfs], [gram.v_norm(n) for n in ngs]
    # the whole ladder is one block, a column per (eta, seed) in ladder order
    cols = [(i, j) for i in range(len(etas)) for j in range(len(seeds))]
    errs = [[] for _ in etas]
    F = np.stack([f0 + nfs[j] * ((eta_abs[i] / 2.0) / vfs[j]) for i, j in cols], axis=1)
    G = np.stack([g0 + ngs[j] * ((eta_abs[i] / 2.0) / vgs[j]) for i, j in cols], axis=1)
    recs, lams, misfits = cauchy_reconstruct(cop, F, G, strategy, lam_fixed=lam_fixed,
                                             eta_target=[eta_abs[i] for i, _ in cols])
    for c, ((i, j), lam, mis) in enumerate(zip(cols, lams, misfits)):
        err = hcurl_norm(scene.grid, scene.omega_region, E=(recs.E[:, c] - truth.E),
                         H=(recs.H[:, c] - truth.H), curl=scene.system.curl)
        errs[i].append(err)
        records.append({"eta_rel": etas[i], "eta_abs": eta_abs[i], "seed": seeds[j],
                        "lambda": float(lam), "misfit": float(mis), "error_hcurl": err,
                        "error_rel": err / (zeta + eta_abs[i])})
    medians = [(e, a, float(np.median(r))) for e, a, r in zip(etas, eta_abs, errs)]

    pairs = [(eta_rel, med / (zeta + eta_abs)) for eta_rel, eta_abs, med in medians]
    fit = fit_log_modulus(pairs) if len(pairs) >= 4 else None

    # monotone in eta: medians ordered along the (descending) ladder
    ordered = sorted(medians, key=lambda r: r[0])
    monotone = all(b[2] >= a[2] * (1 - 1e-9) for a, b in zip(ordered, ordered[1:]))

    # forward discretization error oracle: a plane wave of the constant
    # reference medium, solved on the scene's system when the medium is that
    # constant and otherwise on the reference medium's system on the same grid
    eps0, _, nu0, _ = scene.system.reference
    mu0 = 1.0 / nu0
    probe_sys = scene.system
    if not scene.system.constant:
        probe_sys = _assemble(cfg, scene.grid, materials.make_material(
            scene.grid, {"kind": "constant", "eps": eps0, "mu": mu0}))
    omega = cfg["omega"]
    probe = oracle.plane_wave([omega * np.sqrt(eps0 * mu0), 0.0, 0.0], [0.0, 1.0, 0.0],
                              omega, eps0, mu0)
    disc_rel = oracle.discretization_error(probe, probe_sys)

    tol = cfg["tolerances"]
    flags = {
        "monotone_in_eta": bool(monotone),
        "eta0_ok": bool(err0 / truth_hcurl <= tol["eta0_factor"] * disc_rel),
    }
    fits = []
    if fit is not None:
        flags["m_positive"] = bool(fit.params["m"] > 0)
        flags["r2_ok"] = bool(fit.r2 >= tol["r2_log_modulus"])
        fits.append(fit.row())
    budgets = {"eta": max(r[1] for r in medians), "zeta": zeta, "m0": 0.0,
               "truth_kind": truth_kind, "forward_disc_rel_error": float(disc_rel)}
    return Report("cauchy", cfg, records, fits, flags, budgets)


# ---------------------------------------------------------------------------
# three balls
# ---------------------------------------------------------------------------

def _holder_study(scene: Scene, patch, regions, seeds, m0, tol):
    """Holder interpolation a2 <= C a1^tau a3^(1-tau) over random solutions.

    Each seed draws random tangential data on ``patch``, a column of one
    boundary-value solve; a_k is the H(curl) norm of its E on ``regions[k]``.
    The fit sees the triples shifted by ``m0``.  Returns the unshifted rows,
    the fit, and two flags: the exponent lies inside (0, 1), and the fitted
    bound holds on every sample to ``tol`` in log.
    """
    # seed s's column is default_rng(s)'s first n normals plus i times its next n
    z = np.stack([np.random.default_rng(s).standard_normal((2, patch.n_dofs)) for s in seeds], -1)
    E = solver.solve_bvp(scene.system, solver.TangentialTrace(patch, z[0] + 1j * z[1])).E
    rows = [[hcurl_norm(scene.grid, r, E=e, curl=scene.system.curl) for r in regions]
            for e in E.T]
    triples = [(a1 + m0, a2 + m0, a3 + m0) for a1, a2, a3 in rows]
    fit = fit_holder(triples)
    tau, C = fit.params["tau"], fit.params["C"]
    resid = [np.log(b) - tau * np.log(a) - (1 - tau) * np.log(c) - np.log(C)
             for a, b, c in triples]
    return rows, fit, (bool(1e-9 < tau < 1 - 1e-9), bool(max(resid) <= tol + 1e-12))


def run_three_balls(cfg: dict) -> Report:
    """Holder interpolation feasibility over random interior solutions."""
    scene = build_scene(cfg)
    spec = cfg["three_balls"]
    balls = [geometry.carve_region(scene.grid, {"kind": "ball", "center": spec["center"],
                                                "r": float(spec[r])}) for r in ("r1", "r2", "r3")]
    seeds = [spec.get("seed", cfg["seed"]) + i for i in range(spec["n_samples"])]
    m0 = float(spec["m0"])
    rows, fit, (interior, holds) = _holder_study(
        scene, geometry.whole_boundary(scene.grid), balls, seeds, m0,
        cfg["tolerances"]["holder_residual_max"])
    records = [{"sample": i, "seed": seed, "a1": a1, "a2": a2, "a3": a3, "m0": m0}
               for i, (seed, (a1, a2, a3)) in enumerate(zip(seeds, rows))]
    flags = {
        "tau_interior": interior,
        "holder_bound_holds": holds,
        "enough_samples": bool(len(seeds) >= 20),
    }
    budgets = {"eta": 0.0, "zeta": 0.0, "m0": m0}
    return Report("three_balls", cfg, records, [fit.row()], flags, budgets)


# ---------------------------------------------------------------------------
# propagation of smallness
# ---------------------------------------------------------------------------

def run_propagation(cfg: dict) -> Report:
    """Two-factor interpolation bound for a probe region reached by ball chains."""
    spec = cfg["propagation"]
    x0 = np.asarray(spec["x0"], dtype=float)
    r0 = float(spec["r0"])
    margin_h = float(spec["margin_h"])

    def check(grid, regions):
        g_region = regions["G"]
        if not g_region.complement_connected() or not g_region.is_connected():
            raise GeometryError("regions.G must be connected with a connected complement")
        half_ball = geometry.carve_region(grid, {"kind": "ball", "center": x0.tolist(),
                                                 "r": r0 / 2},
                                          f"propagation.r0 = {r0:g}: B(x0, r0/2)")
        if not np.all(g_region.mask[half_ball.mask]):
            raise GeometryError("regions.G must contain B(x0, r0/2) "
                                "(propagation.x0, propagation.r0)")
        dist = geometry.surface_distance(grid, np.ones(grid.n, dtype=bool))
        if float(dist[g_region.mask].min()) <= margin_h:
            raise GeometryError(f"regions.G must keep more than propagation.margin_h = "
                                f"{margin_h:g} from the wall")

    scene = build_scene(cfg, check=check)
    g_region = scene.regions["G"]
    r3 = margin_h / 2.0
    r1 = r3 / 9.0
    data_ball = geometry.carve_region(scene.grid, {"kind": "ball", "center": x0.tolist(), "r": r0})

    seed0 = spec.get("seed", cfg["seed"])
    rng = np.random.default_rng(seed0)
    # targets live in G itself; the margin hypothesis keeps every point of G
    # more than 2*r3 away from the wall, so chains remain inside the eroded box
    cands = scene.grid.cell_centers()[g_region.mask.reshape(-1)]
    chain_counts = []
    for _ in range(spec["n_paths"]):
        target_pt = cands[rng.integers(len(cands))]
        path = np.vstack([x0, target_pt])
        chain_counts.append(geometry.chain_of_balls(path, r1, scene.omega_region).count)
    cover = geometry.cube_cover(g_region, r1)

    seeds = [seed0 + 1000 + i for i in range(spec["n_samples"])]
    rows, fit, (interior, holds) = _holder_study(
        scene, scene.patch, (data_ball, g_region, scene.omega_region), seeds, 0.0,
        cfg["tolerances"]["holder_residual_max"])
    records = [{"sample": i, "seed": seed, "ball_norm": a1, "g_norm": ag, "omega_norm": az,
                "chain_count": max(chain_counts), "cover_count": len(cover)}
               for i, (seed, (a1, ag, az)) in enumerate(zip(seeds, rows))]
    flags = {"delta_interior": interior, "bound_holds": holds, "chains_valid": True}
    budgets = {"eta": max(r[0] for r in rows), "zeta": max(r[2] for r in rows), "m0": 0.0}
    return Report("propagation", cfg, records, [fit.row()], flags, budgets)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def run_localization(cfg: dict) -> Report:
    """Maximize field concentration on M against D through the spectral basis:
    on M's G_V-orthonormal singular vectors phi, each cutoff k solves the
    pencil (diag(sigma_k^2), D_k^T D_k + eps_reg I_k), D = W_D^{1/2} R_D phi."""
    def check(grid, regions):
        if np.any(regions["M"].mask & regions["D"].mask):
            raise GeometryError("regions.M and regions.D must be disjoint")

    scene = build_scene(cfg, ["M", "D"], check)
    spec = cfg["localization"]
    m_region, d_region = scene.regions["M"], scene.regions["D"]
    gram = build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
    v_m, v_d = VolumeWeights(m_region), VolumeWeights(d_region)
    op_m, op_d = runge_op.assemble_restriction(scene.system, gram, v_m, v_d)
    eps_reg = float(spec["eps_reg"])

    svd_m = runge_op.weighted_svd(op_m)
    # A^H W A = R^T W R: the phase of A cancels, so D is real
    D = np.sqrt(v_d.x_weights())[:, None] * (op_d.matrix @ svd_m.phi)
    records = []
    top_quotient = None
    for cut in spec["cutoffs"]:
        k = min(cut, svd_m.rank)
        Dk = D[:, :k]
        evals, evecs = sla.eigh(np.diag(svd_m.sigma[:k] ** 2), Dk.T @ Dk + eps_reg * np.eye(k))
        quotient = float(evals[-1])
        f = svd_m.phi[:, :k] @ evecs[:, -1]
        # three solves: one block would add lines and save nothing measurable
        fields = solver.solve_bvp(scene.system, gram.trace(f))
        nm = lp_norm(scene.grid, m_region, 2, E=fields.E, H=fields.H)
        nd = lp_norm(scene.grid, d_region, 2, E=fields.E, H=fields.H)
        nz = lp_norm(scene.grid, scene.omega_region, 2, E=fields.E, H=fields.H)
        records.append({"cutoff": k, "quotient": quotient, "norm_m": nm, "norm_d": nd,
                        "norm_omega": nz})
        top_quotient = quotient

    # extremality against random data in the same span
    rng = np.random.default_rng(spec.get("seed", cfg["seed"]))
    beats = True
    k = min(spec["cutoffs"][-1], svd_m.rank)
    basis = svd_m.phi[:, :k]
    for _ in range(spec["n_random"]):
        f = basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        q = _quotient(op_m, op_d, eps_reg, f)
        if q > top_quotient * (1 + 1e-9):
            beats = False
    growing = all(b["quotient"] >= a["quotient"] * (1 - 1e-9)
                  for a, b in zip(records, records[1:]))
    flags = {
        "quotient_threshold": bool(top_quotient >= cfg["tolerances"]["quotient_min"]),
        "maximizer_extremal": bool(beats),
        "quotient_nondecreasing_in_cutoff": bool(growing),
    }
    fits = [{"model": "rayleigh", "top_quotient": top_quotient, "eps_reg": eps_reg}]
    return Report("localization", cfg, records, fits, flags)


def _quotient(op_m, op_d, eps_reg, f):
    num = op_m.volume.x_norm(op_m.apply(f)) ** 2
    den = op_d.volume.x_norm(op_d.apply(f)) ** 2 + eps_reg * op_m.gram.v_norm(f) ** 2
    return num / den


RUNNERS = {
    "verify_solver": run_verify_solver,
    "runge": run_runge,
    "cauchy": run_cauchy,
    "three_balls": run_three_balls,
    "propagation": run_propagation,
    "localization": run_localization,
}


def run_experiment(cfg: dict) -> Report:
    """Run the driver of ``cfg["tag"]``; the report carries its wall-clock time."""
    t0 = time.time()
    report = RUNNERS[cfg["tag"]](cfg)
    report.wall_clock = time.time() - t0
    return report
