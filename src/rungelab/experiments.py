"""Experiment drivers: approximation decay, Cauchy-data stability, three-ball
feasibility, propagation of smallness, and boundary-controlled localization.

Every driver consumes the plain dict ``normalize_config`` returns, runs
deterministically from the recorded seeds, and emits a Report (fixed-column
CSV plus a JSON sidecar echoing the config).  Estimated constants are always
fitted from the measured data, never assumed.
"""

from __future__ import annotations

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

_DEFAULT_TOLERANCES = {
    "convergence_order": 1.8,
    "mimetic_nnz": 0,
    "r2_log_modulus": 0.8,
    "r2_growth": 0.9,
    "strict_decreases": 6,
    "quotient_min": 10.0,
    "eta0_factor": 10.0,
    "holder_residual_max": 0.0,
}


def _scalar_medium(material):
    """(eps, mu) of the analytic oracles; raises on a non-scalar eps or mu."""
    eps, mu = material.get("eps", 1.0), material.get("mu", 1.0)
    if np.ndim(eps) or np.ndim(mu):
        raise ConfigurationError(
            f"the analytic oracles need scalar eps and mu; material kind "
            f"{material.get('kind')!r} has eps={eps!r}, mu={mu!r}")
    return float(eps), float(mu)


def _theta_from(q, q0):
    return (1.0 / q - 0.5) / (1.0 / q0 - 0.5)


def _check_ints(name, values, rule, ok):
    """Raise unless ``values`` is a non-empty list of integers passing ``ok``."""
    ints = isinstance(values, list) and all(type(v) is int for v in values)
    if not (ints and values and ok(values)):
        raise ConfigurationError(f"{name} must be {rule}, got {values!r}")


def _check_number(cfg, key, rule, ok):
    """Raise unless the dotted ``key``, when present, is a number passing ``ok``."""
    section, _, leaf = key.rpartition(".")
    holder = cfg.get(section, {}) if section else cfg
    if leaf in holder and not (type(holder[leaf]) in (int, float) and ok(holder[leaf])):
        raise ConfigurationError(f"{key} must be {rule}, got {holder[leaf]!r}")


# config keys that hold a JSON object when present
_SECTIONS = ("grid", "material", "patch", "exponents", "regions", "three_balls", "propagation",
             "noise", "runge", "localization", "truth", "regularization", "solver", "verify",
             "output", "cache", "tolerances")
# keys no longer read, and where their entries go instead
_REMOVED = {"regions.balls": "three_balls {center, r1, r2, r3} and propagation {x0, r0, margin_h}",
            "material.params": "material itself"}
# numbers the drivers read: integers with their least value (the Holder fit
# needs three samples, numpy seeds are >= 0), then finite numbers > 0 or >= 0
_INTEGERS = (("three_balls.n_samples", 3), ("propagation.n_samples", 3),
             ("propagation.n_paths", 1), ("three_balls.seed", 0), ("propagation.seed", 0),
             ("localization.seed", 0), ("verify.levels", 2), ("seed", 0))
_POSITIVE = ("omega", "runge.C", "runge.m", "three_balls.r1", "three_balls.r2", "three_balls.r3",
             "propagation.r0", "propagation.margin_h", "localization.eps_reg", "truth.width")
_NONNEGATIVE = ("regularization.lambda", "three_balls.m0")


def normalize_config(raw: dict) -> dict:
    """Fill defaults and enforce the cross-field invariants; returns a plain
    dict that re-normalizes to itself (the sidecar echo)."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    tag = cfg.get("tag")
    if tag not in TAGS:
        raise ConfigurationError(f"config field 'tag' must be one of {TAGS}, got {tag!r}")
    for key in _SECTIONS:
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigurationError(
                f"config section {key} must be a JSON object, got {cfg[key]!r}")
    for key, home in _REMOVED.items():
        section, _, leaf = key.partition(".")
        if leaf in cfg.get(section, {}):
            raise ConfigurationError(f"config key {key} was removed; set its entries in {home}")

    grid = cfg.setdefault("grid", {})
    grid.setdefault("n", [12, 12, 12])
    grid.setdefault("h", 1.0 / grid["n"][0])
    grid.setdefault("origin", [0.0, 0.0, 0.0])

    material = cfg.setdefault("material", {"kind": "constant", "eps": 1.0, "mu": 1.0})
    if material.get("kind") == "smooth":
        material.setdefault("seed", 0)
    cfg.setdefault("omega", 2.0)
    patch = cfg.setdefault("patch", {})
    patch.setdefault("side", "x-")
    patch.setdefault("window", None)
    patch.setdefault("collar", "exclude_rim")

    exps = cfg.setdefault("exponents", {})
    p = float(exps.setdefault("p", 4.0))
    q = float(exps.setdefault("q", 3.0))
    q0 = float(exps.setdefault("q0", 4.0))
    if not p > 2:
        raise ConfigurationError(f"exponents.p must exceed 2, got {p}")
    if not (2 < q < q0):
        raise ConfigurationError(f"need 2 < q < q0, got q={q}, q0={q0}")
    if not q0 <= p:
        raise ConfigurationError(f"need q0 <= p, got q0={q0}, p={p}")
    theta_id = _theta_from(q, q0)
    if "theta" in exps and abs(exps["theta"] - theta_id) > 1e-9:
        raise ConfigurationError(
            f"exponents.theta={exps['theta']} contradicts the identity "
            f"1/q = (1-theta)/2 + theta/q0, which gives theta={theta_id:.12g}")
    exps["theta"] = theta_id

    regions = cfg.setdefault("regions", {})
    noise = cfg.setdefault("noise", {})
    noise.setdefault("etas", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    etas = noise["etas"]
    # eta / (1 - eta) scales the noise, and the log fit needs etas in (0, 1)
    if not (isinstance(etas, list) and etas
            and all(type(e) in (int, float) and 0 < e < 1 for e in etas)):
        raise ConfigurationError(
            f"noise.etas must be a non-empty list of numbers strictly inside (0, 1), "
            f"got {etas!r}")
    noise.setdefault("seeds", [101, 102, 103, 104, 105])
    _check_ints("noise.seeds", noise["seeds"], "a non-empty list of integers >= 0",
                lambda ss: min(ss) >= 0)
    rg = cfg.setdefault("runge", {})
    rg.setdefault("js", list(range(1, 11)))
    rg.setdefault("C", float(np.e))
    rg.setdefault("m", 2.0)
    _check_ints("runge.js", rg["js"], "at least 3 strictly increasing integers >= 1",
                lambda js: len(js) >= 3 and 1 <= js[0] and all(np.diff(js) > 0))
    if "cutoffs" in (cfg.get("localization") or {}):
        _check_ints("localization.cutoffs", cfg["localization"]["cutoffs"],
                    "a non-empty list of positive integers", lambda cs: min(cs) >= 1)
    cfg.setdefault("regularization", {"strategy": "morozov", "lambda": 1e-12})
    cfg["regularization"].setdefault("strategy", "morozov")
    cfg["regularization"].setdefault("lambda", 1e-12)
    slv = cfg.setdefault("solver", {})
    slv.setdefault("resonance_threshold", solver.RESONANCE_THRESHOLD)
    slv.setdefault("tol", solver.SOLVER_TOL)
    # verify solves one right-hand side per system: the Krylov path is cheaper
    slv.setdefault("direct_limit", 0 if tag == "verify_solver" else solver.DIRECT_LIMIT)
    cfg.setdefault("verify", {}).setdefault("levels", 3)
    cfg.setdefault("output", {}).setdefault("dir", "out")
    cfg.setdefault("cache", {}).setdefault("dir", None)
    tol = cfg.setdefault("tolerances", {})
    for k, v in _DEFAULT_TOLERANCES.items():
        tol.setdefault(k, v)
    cfg.setdefault("seed", 0)
    for key, least in _INTEGERS:
        _check_number(cfg, key, f"an integer >= {least}", lambda v: type(v) is int and v >= least)
    for key in _POSITIVE:
        _check_number(cfg, key, "a finite number > 0", lambda v: 0 < v < np.inf)
    for key in _NONNEGATIVE:
        _check_number(cfg, key, "a finite number >= 0", lambda v: 0 <= v < np.inf)
    if tag == "propagation":
        missing = [f"propagation.{k}" for k in ("x0", "r0", "margin_h")
                   if k not in cfg.get("propagation", {})] + ["regions.G"] * ("G" not in regions)
        if missing:
            raise ConfigurationError(f"propagation needs {', '.join(missing)}")
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


def _assemble(cfg: dict, grid, mat) -> solver.SystemMatrix:
    slv = cfg["solver"]
    return solver.assemble(grid, mat, cfg["omega"],
                           resonance_threshold=slv["resonance_threshold"],
                           solver_tol=slv["tol"], direct_limit=slv["direct_limit"])


def build_scene(cfg: dict) -> Scene:
    g = geometry.build_grid(cfg["grid"]["n"], cfg["grid"]["h"], cfg["grid"]["origin"])
    mat = materials.make_material(g, cfg["material"])
    sys_ = _assemble(cfg, g, mat)
    patch = geometry.boundary_patch(g, cfg["patch"]["side"], cfg["patch"]["window"])
    lo = g.origin
    hi = g.origin + np.array(g.n) * g.h
    omega_region = geometry.carve_region(g, {"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()})
    return Scene(g, mat, sys_, patch, omega_region)


def _random_trace(patch, rng):
    v = rng.standard_normal(patch.n_dofs) + 1j * rng.standard_normal(patch.n_dofs)
    return solver.TangentialTrace(patch, v)


def _target_solution(spec, omega, eps0=1.0, mu0=1.0):
    kind = spec.get("kind", "dipole")
    if kind == "dipole":
        return oracle.dipole_field(spec["x0"], spec.get("m", [0.0, 0.0, 1.0]), omega, eps0, mu0)
    if kind == "plane_wave":
        return oracle.plane_wave(spec["k"], spec["p"], omega, eps0, mu0)
    raise ConfigurationError(f"unknown target kind {kind!r}")


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
    base = cfg["grid"]
    levels = cfg["verify"]["levels"]
    omega = float(cfg["omega"])
    wave = cfg["verify"].get("wave") or {}
    k = np.asarray(wave.get("k", [omega, 0.0, 0.0]), dtype=float)
    p = np.asarray(wave.get("p", [0.0, 1.0, 0.0]), dtype=float)
    kind = cfg["material"].get("kind")
    if kind != "constant":
        raise ConfigurationError(
            f"verify compares with a plane wave in a constant medium, not kind {kind!r}")
    sol = oracle.plane_wave(k, p, omega, *_scalar_medium(cfg["material"]))

    grids = [geometry.build_grid([v * 2 ** lvl for v in base["n"]], base["h"] / 2 ** lvl,
                                 base["origin"]) for lvl in range(levels)]
    slv = cfg["solver"]
    rows = oracle.convergence_study(sol, grids, omega=omega, material_spec=cfg["material"],
                                    resonance_threshold=slv["resonance_threshold"],
                                    solver_tol=slv["tol"], direct_limit=slv["direct_limit"])

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
    scene = scene or build_scene(cfg)
    if svd is None:
        region_a = geometry.carve_region(scene.grid, cfg["regions"]["A"])
        gram = build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
        op = _operator_with_cache(cfg, scene, gram, VolumeWeights(region_a))
        svd = runge_op.weighted_svd(op)

    target = _target_solution(cfg["runge"]["target"], cfg["omega"],
                              *_scalar_medium(cfg["material"]))
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
    strict = best = 0
    for a, b in zip(errs, errs[1:]):
        strict = strict + 1 if b < a * (1 - 1e-12) else 0
        best = max(best, strict)
    strict = best
    v_nondecreasing = all(b >= a * (1 - 1e-12) for a, b in zip(vs, vs[1:]))

    fits = []
    pos = [(j, e) for j, e in zip(js, errs) if e > 0]
    if len(pos) >= 2:
        fits.append(fit_power(pos).row())
    x = np.array([float(j) ** (2.0 / m_cal) for j in js])
    y = np.log(np.maximum(growth, 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    r2_growth = analysis.r_squared(y, slope * x + intercept)
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
    (the edge lines of the box) leave the interior field zero.
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

    def fields_of(self, b):
        sys_ = self.scene.system
        return solver.lift(sys_, b, -(sys_.L_IB @ b))


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
    fields = cauchy_op.fields_of(ex.ridge(lam) / np.sqrt(cauchy_op.reg))
    misfit = cauchy_op.misfit_norm(cauchy_op.data_of(fields) - d)
    return fields, lam[()], misfit


def _cauchy_truth(cfg, scene: Scene):
    spec = cfg.get("truth") or {"kind": "far_side_bump"}
    kind = spec.get("kind", "far_side_bump")
    if kind == "far_side_bump":
        side = spec.get("side")
        if side is None:
            missing = [s for s in geometry.SIDES if s not in scene.patch.sides]
            if len(missing) != 1:
                raise ConfigurationError(
                    "truth.side is required unless the patch leaves exactly one side free")
            side = missing[0]
        far = geometry.boundary_patch(scene.grid, side)
        pts = scene.grid.edge_midpoints()[far.edge_dofs]
        center = np.asarray(spec.get("center", scene.grid.origin
                                     + 0.5 * np.array(scene.grid.n) * scene.grid.h))
        width = float(spec.get("width", 0.25))
        prof = np.exp(-np.sum((pts - center) ** 2, axis=1) / (2 * width ** 2))
        values = prof.astype(complex) * (1.0 + 0.5j)
        truth = solver.solve_bvp(scene.system, solver.TangentialTrace(far, values))
        return truth, "discrete"
    if kind == "dipole":
        sol = oracle.dipole_field(spec["x0"], spec.get("m", [0, 0, 1.0]), cfg["omega"],
                                  *_scalar_medium(cfg["material"]))
        truth = oracle.sample_on_grid(sol, scene.grid)
        return truth, "analytic"
    raise ConfigurationError(f"unknown truth kind {kind!r}")


def run_cauchy(cfg: dict, scene: Scene | None = None) -> Report:
    """Noise-ladder reconstruction study of the two-trace Cauchy problem."""
    scene = scene or build_scene(cfg)
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

    Each seed draws random tangential data on ``patch`` and solves one
    boundary-value problem; a_k is the H(curl) norm of its E on
    ``regions[k]``.  The fit sees the triples shifted by ``m0``.  Returns the
    unshifted rows, the fit, and two flags: the exponent lies inside (0, 1),
    and the fitted bound holds on every sample to ``tol`` in log.
    """
    rows = []
    for seed in seeds:
        fields = solver.solve_bvp(scene.system, _random_trace(patch, np.random.default_rng(seed)))
        rows.append([hcurl_norm(scene.grid, r, E=fields.E, curl=scene.system.curl)
                     for r in regions])
    triples = [(a1 + m0, a2 + m0, a3 + m0) for a1, a2, a3 in rows]
    fit = fit_holder(triples)
    tau, C = fit.params["tau"], fit.params["C"]
    resid = [np.log(b) - tau * np.log(a) - (1 - tau) * np.log(c) - np.log(C)
             for a, b, c in triples]
    return rows, fit, (bool(1e-9 < tau < 1 - 1e-9), bool(max(resid) <= tol + 1e-12))


def run_three_balls(cfg: dict, scene: Scene | None = None) -> Report:
    """Holder interpolation feasibility over random interior solutions."""
    scene = scene or build_scene(cfg)
    spec = cfg.get("three_balls") or {}
    center = list(spec.get("center", (np.array(scene.grid.n) * scene.grid.h / 2
                                      + scene.grid.origin).tolist()))
    r1 = float(spec.get("r1", 0.12))
    r2 = float(spec.get("r2", 0.21))
    r3 = float(spec.get("r3", 0.45))
    if not (r1 < r2 < r3 / 2):
        raise GeometryError(f"need r1 < r2 < r3/2, got {r1}, {r2}, {r3}")
    lo = scene.grid.origin
    hi = lo + np.array(scene.grid.n) * scene.grid.h
    if np.any(np.asarray(center) - r3 < lo) or np.any(np.asarray(center) + r3 > hi):
        raise GeometryError("outer ball must sit inside the box")
    balls = [geometry.carve_region(scene.grid, {"kind": "ball", "center": center, "r": r})
             for r in (r1, r2, r3)]

    n_samples = int(spec.get("n_samples", 20))
    seed0 = int(spec.get("seed", cfg["seed"]))
    m0 = float(spec.get("m0", 0.0))
    seeds = [seed0 + i for i in range(n_samples)]
    rows, fit, (interior, holds) = _holder_study(
        scene, geometry.whole_boundary(scene.grid), balls, seeds, m0,
        cfg["tolerances"]["holder_residual_max"])
    records = [{"sample": i, "seed": seed, "a1": a1, "a2": a2, "a3": a3, "m0": m0}
               for i, (seed, (a1, a2, a3)) in enumerate(zip(seeds, rows))]
    flags = {
        "tau_interior": interior,
        "holder_bound_holds": holds,
        "enough_samples": bool(n_samples >= 20),
    }
    budgets = {"eta": 0.0, "zeta": 0.0, "m0": m0}
    return Report("three_balls", cfg, records, [fit.row()], flags, budgets)


# ---------------------------------------------------------------------------
# propagation of smallness
# ---------------------------------------------------------------------------

def run_propagation(cfg: dict, scene: Scene | None = None) -> Report:
    """Two-factor interpolation bound for a probe region reached by ball chains."""
    scene = scene or build_scene(cfg)
    spec = cfg.get("propagation") or {}
    x0 = np.asarray(spec["x0"], dtype=float)
    r0 = float(spec["r0"])
    margin_h = float(spec["margin_h"])
    if margin_h > r0 / 2:
        raise GeometryError(
            f"margin {margin_h:g} exceeds r0/2 = {r0 / 2:g}; the hypotheses conflict")
    g_region = geometry.carve_region(scene.grid, cfg["regions"]["G"])
    if not g_region.complement_connected() or not g_region.is_connected():
        raise GeometryError("probe region must be connected with connected complement")
    half_ball = geometry.carve_region(scene.grid, {"kind": "ball", "center": x0.tolist(),
                                                   "r": r0 / 2})
    if not np.all(g_region.mask[half_ball.mask]):
        raise GeometryError("B(x0, r0/2) must sit inside the probe region")
    dist = geometry.surface_distance(scene.grid, np.ones(scene.grid.n, dtype=bool))
    if float(dist[g_region.mask].min()) <= margin_h:
        raise GeometryError("probe region must keep more than the margin from the wall")

    r3 = margin_h / 2.0
    r1 = r3 / 9.0
    data_ball = geometry.carve_region(scene.grid, {"kind": "ball", "center": x0.tolist(), "r": r0})

    n_paths = int(spec.get("n_paths", 3))
    seed0 = int(spec.get("seed", cfg["seed"]))
    rng = np.random.default_rng(seed0)
    # targets live in G itself; the margin hypothesis keeps every point of G
    # more than 2*r3 away from the wall, so chains remain inside the eroded box
    cands = scene.grid.cell_centers()[g_region.mask.reshape(-1)]
    chain_counts = []
    for _ in range(n_paths):
        target_pt = cands[rng.integers(len(cands))]
        path = np.vstack([x0, target_pt])
        chain_counts.append(geometry.chain_of_balls(path, r1, scene.omega_region).count)
    cover = geometry.cube_cover(g_region, r1)

    n_samples = int(spec.get("n_samples", 12))
    seeds = [seed0 + 1000 + i for i in range(n_samples)]
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

def run_localization(cfg: dict, scene: Scene | None = None) -> Report:
    """Maximize field concentration on M against D through the spectral basis."""
    scene = scene or build_scene(cfg)
    spec = cfg.get("localization") or {}
    m_region = geometry.carve_region(scene.grid, cfg["regions"]["M"])
    d_region = geometry.carve_region(scene.grid, cfg["regions"]["D"])
    if np.any(m_region.mask & d_region.mask):
        raise GeometryError("localization regions M and D must be disjoint")
    gram = build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
    v_m, v_d = VolumeWeights(m_region), VolumeWeights(d_region)
    op_m, op_d = runge_op.assemble_restriction(scene.system, gram, v_m, v_d)
    eps_reg = float(spec.get("eps_reg", 1e-6))

    # A^H W A = R^T W R: the phase of A cancels, so both forms are real
    P = op_m.matrix.T @ (v_m.x_weights()[:, None] * op_m.matrix)
    Q = op_d.matrix.T @ (v_d.x_weights()[:, None] * op_d.matrix) + eps_reg * gram.gram_V
    P = 0.5 * (P + P.T)
    Q = 0.5 * (Q + Q.T)

    svd_m = runge_op.weighted_svd(op_m)
    cutoffs = [int(c) for c in spec.get("cutoffs", [10, 20, 50])]
    records = []
    top_quotient = None
    for cut in cutoffs:
        k = min(cut, svd_m.rank)
        basis = svd_m.phi[:, :k]
        Pk = basis.T @ P @ basis
        Qk = basis.T @ Q @ basis
        Pk = 0.5 * (Pk + Pk.T)
        Qk = 0.5 * (Qk + Qk.T)
        evals, evecs = sla.eigh(Pk, Qk)
        quotient = float(evals[-1])
        f = basis @ evecs[:, -1]
        fields = solver.solve_bvp(scene.system, gram.trace(f))
        nm = lp_norm(scene.grid, m_region, 2, E=fields.E, H=fields.H)
        nd = lp_norm(scene.grid, d_region, 2, E=fields.E, H=fields.H)
        nz = lp_norm(scene.grid, scene.omega_region, 2, E=fields.E, H=fields.H)
        records.append({"cutoff": k, "quotient": quotient, "norm_m": nm, "norm_d": nd,
                        "norm_omega": nz})
        top_quotient = quotient

    # extremality against random data in the same span
    rng = np.random.default_rng(int(spec.get("seed", cfg["seed"])))
    beats = True
    k = min(cutoffs[-1], svd_m.rank)
    basis = svd_m.phi[:, :k]
    for _ in range(int(spec.get("n_random", 5))):
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
