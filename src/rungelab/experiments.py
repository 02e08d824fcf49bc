"""Experiment drivers: approximation decay, Cauchy-data stability, three-ball
feasibility, propagation of smallness, and boundary-controlled localization.

Every driver consumes a validated ExperimentConfig, runs deterministically
from the recorded seeds, and emits a Report (fixed-column CSV plus a JSON
sidecar echoing the config).  Estimated constants are always fitted from the
measured data, never assumed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import analysis, geometry, materials, oracle, runge_op, solver
from .errors import ConfigurationError, GeometryError
from .analysis import (build_norm_weights, fit_holder, fit_log_modulus, fit_power, hcurl_norm,
                       lp_norm, real_matmul)

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


def _theta_from(q, q0):
    return (1.0 / q - 0.5) / (1.0 / q0 - 0.5)


def normalize_config(raw: dict) -> dict:
    """Fill defaults and enforce the cross-field invariants; returns a plain
    dict that re-normalizes to itself (the sidecar echo)."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    tag = cfg.get("tag")
    if tag not in TAGS:
        raise ConfigurationError(f"config field 'tag' must be one of {TAGS}, got {tag!r}")

    grid = cfg.setdefault("grid", {})
    grid.setdefault("n", [12, 12, 12])
    grid.setdefault("h", 1.0 / grid["n"][0])
    grid.setdefault("origin", [0.0, 0.0, 0.0])

    material = cfg.setdefault("material", {"kind": "constant", "eps": 1.0, "mu": 1.0})
    if "params" in material:
        for k, v in material.pop("params").items():
            material.setdefault(k, v)
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
    balls = regions.get("balls")
    if balls:
        tb = cfg.setdefault("three_balls", {})
        for key in ("center", "r1", "r2", "r3"):
            if key in balls:
                tb.setdefault(key, balls[key])
        prop = cfg.setdefault("propagation", {})
        for src_key, dst_key in (("x0", "x0"), ("center", "x0"), ("r0", "r0"),
                                 ("margin_h", "margin_h")):
            if src_key in balls:
                prop.setdefault(dst_key, balls[src_key])
    noise = cfg.setdefault("noise", {})
    noise.setdefault("etas", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    noise.setdefault("seeds", [101, 102, 103, 104, 105])
    rg = cfg.setdefault("runge", {})
    rg.setdefault("js", list(range(1, 11)))
    rg.setdefault("C", float(np.e))
    rg.setdefault("m", 2.0)
    cfg.setdefault("regularization", {"strategy": "morozov", "lambda": 1e-12})
    cfg["regularization"].setdefault("strategy", "morozov")
    cfg["regularization"].setdefault("lambda", 1e-12)
    slv = cfg.setdefault("solver", {})
    slv.setdefault("resonance_threshold", solver.RESONANCE_THRESHOLD)
    slv.setdefault("tol", solver.SOLVER_TOL)
    slv.setdefault("direct_limit", solver.DIRECT_LIMIT)
    cfg.setdefault("verify", {})
    cfg["verify"].setdefault("levels", 3)
    cfg.setdefault("output", {}).setdefault("dir", "out")
    cfg.setdefault("cache", {}).setdefault("dir", None)
    tol = cfg.setdefault("tolerances", {})
    for k, v in _DEFAULT_TOLERANCES.items():
        tol.setdefault(k, v)
    cfg.setdefault("seed", 0)
    return cfg


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``data`` is the normalized echo."""

    data: dict

    @classmethod
    def from_dict(cls, raw):
        return cls(normalize_config(raw))

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def tag(self):
        return self.data["tag"]

    @property
    def tolerances(self):
        return self.data["tolerances"]

    def echo(self):
        return json.loads(json.dumps(self.data))


@dataclass
class StabilityBudget:
    """Size bounds entering the conditional stability estimates."""

    eta: float = 0.0
    zeta: float = 0.0
    m0: float = 0.0

    def __post_init__(self):
        if min(self.eta, self.zeta, self.m0) < 0:
            raise ConfigurationError("stability budgets must be nonnegative")

    def as_dict(self):
        return {"eta": self.eta, "zeta": self.zeta, "m0": self.m0}


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

    def __init__(self, tag, config_echo, records, fits, flags, budgets=None,
                 wall_clock=0.0):
        self.tag = tag
        self.config_echo = config_echo
        self.columns = _COLUMNS[tag]
        self.records = records
        self.fits = fits
        self.flags = flags
        self.budgets = budgets or {}
        self.wall_clock = wall_clock
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
        import os
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


def build_scene(cfg: ExperimentConfig) -> Scene:
    g = geometry.build_grid(cfg["grid"]["n"], cfg["grid"]["h"], cfg["grid"]["origin"])
    mat = materials.make_material(g, cfg["material"])
    slv = cfg["solver"]
    sys_ = solver.assemble(g, mat, cfg["omega"],
                           resonance_threshold=slv["resonance_threshold"],
                           solver_tol=slv["tol"], direct_limit=slv["direct_limit"])
    pspec = cfg["patch"]
    window = pspec["window"]
    if window is not None:
        window = (window[0], window[1])
    patch = geometry.boundary_patch(g, pspec["side"], window)
    lo = g.origin
    hi = g.origin + np.array(g.n) * g.h
    omega_region = geometry.carve_region(
        g, {"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()}, role="omega")
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


def _target_on_region(sol, weights: analysis.NormWeights):
    """Evaluate an analytic solution on the region-restricted dofs only."""
    grid = weights.patch.grid
    pts_e = grid.edge_midpoints()[weights.x_edge_idx]
    comp_e = grid.edge_components()[weights.x_edge_idx]
    pts_f = grid.face_centers()[weights.x_face_idx]
    comp_f = grid.face_components()[weights.x_face_idx]
    x0 = sol.singularity()
    if x0 is not None:
        near = min(np.min(np.linalg.norm(pts_e - x0, axis=1)),
                   np.min(np.linalg.norm(pts_f - x0, axis=1)))
        if near < 2 * grid.h:
            raise GeometryError(
                f"target singularity {x0} within 2h of the region (distance {near:g})")
    E = sol.E(pts_e)[np.arange(len(pts_e)), comp_e]
    H = sol.H(pts_f)[np.arange(len(pts_f)), comp_f]
    return np.concatenate([E, H])


def _operator_with_cache(cfg, scene, weights):
    cache_dir = cfg["cache"]["dir"]
    if cache_dir:
        import os
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"operator-{runge_op.operator_provenance(scene.system, weights):016x}.rgfo")
        if os.path.exists(path):
            return runge_op.load_operator(path, weights, scene.system)
        op = runge_op.assemble_restriction(scene.system, weights)
        runge_op.save_operator(op, path)
        return op
    return runge_op.assemble_restriction(scene.system, weights)


# ---------------------------------------------------------------------------
# verify_solver
# ---------------------------------------------------------------------------

def run_verify_solver(cfg: ExperimentConfig) -> Report:
    """Plane-wave convergence over nested refinements plus the mimetic check."""
    t0 = time.time()
    base = cfg["grid"]
    levels = int(cfg["verify"]["levels"])
    if levels < 2:
        raise ConfigurationError("verify needs at least two refinement levels")
    omega = float(cfg["omega"])
    wave = cfg["verify"].get("wave") or {}
    k = np.asarray(wave.get("k", [omega, 0.0, 0.0]), dtype=float)
    p = np.asarray(wave.get("p", [0.0, 1.0, 0.0]), dtype=float)
    eps0 = float(cfg["material"].get("eps", 1.0))
    mu0 = float(cfg["material"].get("mu", 1.0))
    sol = oracle.plane_wave(k, p, omega, eps0, mu0)

    grids = []
    for lvl in range(levels):
        factor = 2 ** lvl
        n = [v * factor for v in base["n"]]
        grids.append(geometry.build_grid(n, base["h"] / factor, base["origin"]))
    slv = cfg["solver"]
    rows = oracle.convergence_study(sol, grids, omega=omega, material_spec=cfg["material"],
                                    resonance_threshold=slv["resonance_threshold"],
                                    solver_tol=slv["tol"], direct_limit=slv["direct_limit"])

    records = []
    for lvl, (h, err, order) in enumerate(rows):
        records.append({"level": lvl, "h": h, "rel_error": err,
                        "order": order if order is not None else 0.0})
    defect = solver.mimetic_defect(grids[0])
    orders = [r[2] for r in rows if r[2] is not None]
    tol = cfg.tolerances
    flags = {
        "convergence_order_ok": bool(min(orders) >= tol["convergence_order"]),
        "mimetic_ok": bool(defect.nnz <= tol["mimetic_nnz"]),
    }
    fits = [{"model": "observed_orders", "orders": orders}]
    return Report("verify_solver", cfg.echo(), records, fits, flags,
                  wall_clock=time.time() - t0)


# ---------------------------------------------------------------------------
# runge decay
# ---------------------------------------------------------------------------

def run_runge(cfg: ExperimentConfig, scene: Scene | None = None,
              svd: runge_op.SvdBundle | None = None) -> Report:
    """Truncated-approximant error decay and boundary-cost growth over the
    calibration ladder alpha(j)."""
    t0 = time.time()
    scene = scene or build_scene(cfg)
    region_a = geometry.carve_region(scene.grid, cfg["regions"]["A"], role="subdomain_A")
    if svd is None:
        weights = build_norm_weights(scene.patch, region_a, collar=cfg["patch"]["collar"])
        op = _operator_with_cache(cfg, scene, weights)
        svd = runge_op.weighted_svd(op)
    weights = svd.weights

    target = _target_solution(cfg["runge"]["target"], cfg["omega"],
                              float(cfg["material"].get("eps", 1.0)),
                              float(cfg["material"].get("mu", 1.0)))
    W = _target_on_region(target, weights)
    coeffs, out_residual = runge_op.expand_target(svd, W)

    theta = cfg["exponents"]["theta"]
    C_cal = float(cfg["runge"]["C"])
    m_cal = float(cfg["runge"]["m"])
    js = [int(j) for j in cfg["runge"]["js"]]
    sigma1 = float(svd.sigma[0])

    records = []
    bound_ok = True
    for j in js:
        alpha = min(runge_op.alpha_for_j(j, C_cal, theta, m_cal), sigma1)
        appr = runge_op.truncate(svd, coeffs, alpha, j_index=j)
        tail = appr.in_span_error()
        x_err = float(np.hypot(tail, out_residual))
        v_norm = appr.boundary_norm()
        v_bound = appr.boundary_norm_bound()
        if v_norm > v_bound * (1 + 1e-12):
            bound_ok = False
        fields = solver.solve_bvp(scene.system, appr.trace())
        g_norm = hcurl_norm(scene.grid, scene.omega_region, E=fields.E, H=fields.H,
                            curl=scene.system.curl)
        records.append({"j": j, "alpha": alpha, "kept": appr.kept_count, "x_error": x_err,
                        "tail_error": tail, "out_of_span": out_residual,
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

    tol = cfg.tolerances
    flags = {
        "error_nonincreasing": bool(nonincreasing),
        "strict_decreases_ok": bool(strict >= tol["strict_decreases"]),
        "v_norm_nondecreasing": bool(v_nondecreasing),
        "termwise_bound_ok": bool(bound_ok),
        "growth_rate_positive": bool(slope > 0),
        "growth_r2_ok": bool(r2_growth >= tol["r2_growth"]),
    }
    return Report("runge", cfg.echo(), records, fits, flags,
                  wall_clock=time.time() - t0)


# ---------------------------------------------------------------------------
# cauchy stability
# ---------------------------------------------------------------------------

def _h_trace_dofs(patch: geometry.BoundaryPatch, sel):
    """Tangential magnetic dofs paired one-to-one with the selected edge dofs:
    the face of the complementary tangential direction, half a cell inward of
    the edge's home side."""
    grid = patch.grid
    out = np.empty(len(sel), dtype=int)
    dofs = patch.edge_dofs[sel]
    comps = grid.edge_axis_of(dofs)
    for i, (pos, dof, comp) in enumerate(zip(sel, dofs, comps)):
        side = patch.home_side[int(pos)]
        axis = "xyz".index(side[0])
        layer = 0 if side[1] == "-" else grid.n[axis] - 1
        local = int(dof) - grid.edge_offsets[comp]
        shape = grid.edge_shapes[comp]
        ii = local // (shape[1] * shape[2])
        jj = (local // shape[2]) % shape[1]
        kk = local % shape[2]
        other = 3 - axis - comp
        coords = [ii, jj, kk]
        coords[axis] = layer
        out[i] = grid.face_index(other, *coords)
    return out


def h_trace_block(sys_: solver.SystemMatrix, h_dofs):
    """Real block R whose column j times i is H[h_dofs] for unit data on the
    j-th boundary edge (``idx_boundary`` order).

    L is real symmetric, so unit data give a real E and
    H = P C E / (i omega) = i (-P C E / omega).  One multi-RHS solve covers
    every boundary column that couples to an interior edge; the others (the
    edge lines of the box) leave the interior field zero.
    """
    live = np.flatnonzero(sys_.L_IB.getnnz(axis=0))
    E_I = sys_.solve_interior(-sys_.L_IB[:, live].toarray())
    PC = (sys_.mu_inv_point @ sys_.curl)[h_dofs]
    R = PC[:, sys_.idx_boundary].toarray()
    R[:, live] += PC[:, sys_.idx_interior] @ E_I
    return R / -sys_.omega


class CauchyOperator:
    """Trace operator of the discrete solution manifold, parametrized by the
    full boundary data, with its whitened SVD for fast ridge solves.

    T = [T_E; T_H] maps boundary data to the E and H traces on the patch.
    T_E is a 0/1 selection and T_H = i R with R real (``h_trace_block``), so
    the whitened operator diag(L^T, L^T) T diag(rsq) equals Q W with
    Q = diag(I, iI) unitary and W real (G_V = L L^T, rsq the inverse square
    roots of the Tikhonov weights).  The SVD of W is real and
    Q U S V^T is the SVD of the whitened operator; data are whitened straight
    into the frame of W by Q^H diag(L^T, L^T).
    """

    def __init__(self, scene: Scene, weights: analysis.NormWeights):
        self.scene = scene
        self.weights = weights
        sys_ = scene.system
        self.b_dofs = sys_.idx_boundary
        nb = len(self.b_dofs)
        self.h_dofs = _h_trace_dofs(weights.patch, weights.v_sel)

        # Tikhonov Gram on the unknown data: diagonal area weights
        self.reg_diag = np.full(nb, scene.grid.h ** 2)
        # misfit Gram: the boundary surrogate on both trace channels;
        # whitening applies the transposed factor, ||v||_G = ||L^T v||
        self._Lt = weights.chol_V.T
        bpos = {int(d): i for i, d in enumerate(self.b_dofs)}
        e_rows = np.array([bpos[int(d)] for d in weights.v_dofs], dtype=int)
        W_E = np.zeros((weights.n_v, nb))
        W_E[:, e_rows] = self._Lt
        W = np.vstack([W_E, self._Lt @ h_trace_block(sys_, self.h_dofs)])
        W /= np.sqrt(self.reg_diag)[None, :]
        U, self.S, Vt = np.linalg.svd(W, full_matrices=False)
        self.Ut = U.T
        self.V = Vt.T

    def data_of(self, fields: solver.FieldPair):
        return np.concatenate([fields.E[self.weights.v_dofs], fields.H[self.h_dofs]])

    def misfit_norm(self, v):
        return float(np.linalg.norm(self._white(v)))

    def _white(self, d):
        """Q^H diag(L^T, L^T) d: the whitened data in the real frame of W."""
        n = self.weights.n_v
        f, g = d[:n], d[n:]
        # -i g = g.imag - i g.real
        w = self._Lt @ np.column_stack([f.real, f.imag, g.imag, -g.real])
        return np.concatenate([w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]])

    def _project(self, d):
        """Coefficients of the whitened data on the left singular vectors."""
        return real_matmul(self.Ut, self._white(d))

    def _split(self, d):
        """The coefficients of ``_project`` and the squared norm of the
        whitened data outside the span of the left singular vectors.

        The out-of-span part is formed as the residual dw - U ud: the
        difference ||dw||^2 - ||ud||^2 cancels when the data lie almost in the
        span, which is the low-noise end of the study.
        """
        dw = self._white(d)
        ud = real_matmul(self.Ut, dw)
        return ud, np.linalg.norm(dw - real_matmul(self.Ut.T, ud)) ** 2

    def solve_ridge(self, d, lam):
        filt = self.S / (self.S ** 2 + lam)
        bw = real_matmul(self.V, filt * self._project(d))
        return bw / np.sqrt(self.reg_diag)

    def misfit_of_lambda(self, d, lam):
        return self._misfit_from(*self._split(d), lam)

    def _misfit_from(self, ud, out2, lam):
        resid_in = (lam / (self.S ** 2 + lam)) * ud
        return float(np.sqrt(np.linalg.norm(resid_in) ** 2 + out2))

    def morozov_lambda(self, d, target, lo=1e-14, hi=1e6, iters=80):
        """Bisect the monotone misfit(lambda) curve to match the noise size."""
        ud, out2 = self._split(d)
        if self._misfit_from(ud, out2, lo) >= target:
            return lo
        if self._misfit_from(ud, out2, hi) <= target:
            return hi
        llo, lhi = np.log10(lo), np.log10(hi)
        for _ in range(iters):
            mid = 0.5 * (llo + lhi)
            if self._misfit_from(ud, out2, 10.0 ** mid) < target:
                llo = mid
            else:
                lhi = mid
        return 10.0 ** (0.5 * (llo + lhi))

    def fields_of(self, b):
        sys_ = self.scene.system
        return solver._lift(sys_, b, -(sys_.L_IB @ b))


def cauchy_reconstruct(cauchy_op: CauchyOperator, noisy_f, noisy_g, strategy,
                       lam_fixed=1e-12, eta_target=None):
    """Least-squares data completion over the discrete solution manifold.

    Minimizes the patch misfit of both trace channels plus a Tikhonov term on
    the unknown boundary data; lambda comes from the discrepancy principle
    (match misfit to the noise size) or is fixed by config.
    """
    d = np.concatenate([noisy_f, noisy_g])
    if strategy == "morozov" and eta_target and eta_target > 0:
        lam = cauchy_op.morozov_lambda(d, eta_target)
    elif strategy in ("morozov", "fixed"):
        lam = lam_fixed
    else:
        raise ConfigurationError(f"unknown regularization strategy {strategy!r}")
    b = cauchy_op.solve_ridge(d, lam)
    fields = cauchy_op.fields_of(b)
    misfit = cauchy_op.misfit_norm(cauchy_op.data_of(fields) - d)
    return fields, float(lam), misfit


def _cauchy_truth(cfg, scene: Scene):
    spec = cfg.get("truth") or {"kind": "far_side_bump"}
    kind = spec.get("kind", "far_side_bump")
    if kind == "far_side_bump":
        side = spec.get("side")
        if side is None:
            sides = cfg["patch"]["side"]
            sides = [sides] if isinstance(sides, str) else list(sides)
            missing = [s for s in geometry._SIDES if s not in sides]
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
                                  float(cfg["material"].get("eps", 1.0)),
                                  float(cfg["material"].get("mu", 1.0)))
        truth = oracle.sample_on_grid(sol, scene.grid)
        return truth, "analytic"
    raise ConfigurationError(f"unknown truth kind {kind!r}")


def run_cauchy(cfg: ExperimentConfig, scene: Scene | None = None) -> Report:
    """Noise-ladder reconstruction study of the two-trace Cauchy problem."""
    t0 = time.time()
    scene = scene or build_scene(cfg)
    region_a = scene.omega_region
    weights = build_norm_weights(scene.patch, region_a, collar=cfg["patch"]["collar"])
    cop = CauchyOperator(scene, weights)

    truth, truth_kind = _cauchy_truth(cfg, scene)
    p = cfg["exponents"]["p"]
    zeta = lp_norm(scene.grid, scene.omega_region, p, E=truth.E) \
        + lp_norm(scene.grid, scene.omega_region, p, H=truth.H)
    truth_hcurl = hcurl_norm(scene.grid, scene.omega_region, E=truth.E, H=truth.H,
                             curl=scene.system.curl)
    d0 = cop.data_of(truth)
    f0 = d0[:weights.n_v]
    g0 = d0[weights.n_v:]

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
    medians = []
    for eta_rel in etas:
        eta_abs = eta_rel * zeta / (1.0 - eta_rel)
        errs = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            nf = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
            ng = rng.standard_normal(weights.n_v) + 1j * rng.standard_normal(weights.n_v)
            nf *= (eta_abs / 2.0) / weights.v_norm(nf)
            ng *= (eta_abs / 2.0) / weights.v_norm(ng)
            rec, lam, mis = cauchy_reconstruct(cop, f0 + nf, g0 + ng, strategy,
                                               lam_fixed=lam_fixed, eta_target=eta_abs)
            err = hcurl_norm(scene.grid, scene.omega_region, E=(rec.E - truth.E),
                             H=(rec.H - truth.H), curl=scene.system.curl)
            errs.append(err)
            records.append({"eta_rel": eta_rel, "eta_abs": eta_abs, "seed": seed,
                            "lambda": lam, "misfit": mis, "error_hcurl": err,
                            "error_rel": err / (zeta + eta_abs)})
        medians.append((eta_rel, eta_abs, float(np.median(errs))))

    pairs = [(eta_rel, med / (zeta + eta_abs)) for eta_rel, eta_abs, med in medians]
    fit = fit_log_modulus(pairs) if len(pairs) >= 4 else None

    # monotone in eta: medians ordered along the (descending) ladder
    ordered = sorted(medians, key=lambda r: r[0])
    monotone = all(b[2] >= a[2] * (1 - 1e-9) for a, b in zip(ordered, ordered[1:]))

    # forward discretization error oracle on the scene's own system (vacuum plane wave)
    probe = oracle.plane_wave([cfg["omega"], 0.0, 0.0], [0.0, 1.0, 0.0], cfg["omega"],
                              float(cfg["material"].get("eps", 1.0)),
                              float(cfg["material"].get("mu", 1.0)))
    disc_rel = oracle.discretization_error(probe, scene.system)

    tol = cfg.tolerances
    flags = {
        "monotone_in_eta": bool(monotone),
        "eta0_ok": bool(err0 / truth_hcurl <= tol["eta0_factor"] * disc_rel),
    }
    fits = []
    if fit is not None:
        flags["m_positive"] = bool(fit.params["m"] > 0)
        flags["r2_ok"] = bool(fit.r2 >= tol["r2_log_modulus"])
        fits.append(fit.row())
    budgets = StabilityBudget(eta=max(r[1] for r in medians) if medians else 0.0,
                              zeta=zeta).as_dict()
    budgets["truth_kind"] = truth_kind
    budgets["forward_disc_rel_error"] = float(disc_rel)
    return Report("cauchy", cfg.echo(), records, fits, flags, budgets,
                  wall_clock=time.time() - t0)


# ---------------------------------------------------------------------------
# three balls
# ---------------------------------------------------------------------------

def run_three_balls(cfg: ExperimentConfig, scene: Scene | None = None) -> Report:
    """Holder interpolation feasibility over random interior solutions."""
    t0 = time.time()
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
    balls = [geometry.carve_region(scene.grid, {"kind": "ball", "center": center, "r": r},
                                   role="ball") for r in (r1, r2, r3)]

    n_samples = int(spec.get("n_samples", 20))
    seed0 = int(spec.get("seed", cfg["seed"]))
    m0 = float(spec.get("m0", 0.0))
    boundary = oracle._whole_boundary(scene.grid)

    def one(i):
        rng = np.random.default_rng(seed0 + i)
        fields = solver.solve_bvp(scene.system, _random_trace(boundary, rng))
        norms = [hcurl_norm(scene.grid, b, E=fields.E, curl=scene.system.curl)
                 for b in balls]
        return norms

    rows = [one(i) for i in range(n_samples)]
    records = []
    triples = []
    for i, (a1, a2, a3) in enumerate(rows):
        records.append({"sample": i, "seed": seed0 + i, "a1": a1, "a2": a2, "a3": a3,
                        "m0": m0})
        triples.append((a1 + m0, a2 + m0, a3 + m0))
    fit = fit_holder(triples)
    tau, C = fit.params["tau"], fit.params["C"]
    resid = [np.log(b) - tau * np.log(a) - (1 - tau) * np.log(c) - np.log(C)
             for a, b, c in triples]
    tol = cfg.tolerances
    flags = {
        "tau_interior": bool(1e-9 < tau < 1 - 1e-9),
        "holder_bound_holds": bool(max(resid) <= tol["holder_residual_max"] + 1e-12),
        "enough_samples": bool(n_samples >= 20),
    }
    budgets = StabilityBudget(m0=m0).as_dict()
    return Report("three_balls", cfg.echo(), records, [fit.row()], flags, budgets,
                  wall_clock=time.time() - t0)


# ---------------------------------------------------------------------------
# propagation of smallness
# ---------------------------------------------------------------------------

def run_propagation(cfg: ExperimentConfig, scene: Scene | None = None) -> Report:
    """Two-factor interpolation bound for a probe region reached by ball chains."""
    t0 = time.time()
    scene = scene or build_scene(cfg)
    spec = cfg.get("propagation") or {}
    x0 = np.asarray(spec["x0"], dtype=float)
    r0 = float(spec["r0"])
    margin_h = float(spec["margin_h"])
    if margin_h > r0 / 2:
        raise GeometryError(
            f"margin {margin_h:g} exceeds r0/2 = {r0 / 2:g}; the hypotheses conflict")
    g_region = geometry.carve_region(scene.grid, cfg["regions"]["G"], role="probe_G")
    if not g_region.complement_connected() or not _region_connected(g_region):
        raise GeometryError("probe region must be connected with connected complement")
    half_ball = geometry.carve_region(
        scene.grid, {"kind": "ball", "center": x0.tolist(), "r": r0 / 2}, role="ball")
    if not np.all(g_region.mask[half_ball.mask]):
        raise GeometryError("B(x0, r0/2) must sit inside the probe region")
    dist = geometry._surface_distance(scene.grid, np.ones(scene.grid.n, dtype=bool))
    if float(dist[g_region.mask].min()) <= margin_h:
        raise GeometryError("probe region must keep more than the margin from the wall")

    r3 = margin_h / 2.0
    r1 = r3 / 9.0
    data_ball = geometry.carve_region(
        scene.grid, {"kind": "ball", "center": x0.tolist(), "r": r0}, role="ball")

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
        chain = geometry.chain_of_balls(path, r1, scene.omega_region)
        chain.check_invariants(scene.omega_region)
        chain_counts.append(chain.count)
    cover = geometry.cube_cover(g_region, r1)

    n_samples = int(spec.get("n_samples", 12))

    def one(i):
        rng_i = np.random.default_rng(seed0 + 1000 + i)
        fields = solver.solve_bvp(scene.system, _random_trace(scene.patch, rng_i))
        a1 = hcurl_norm(scene.grid, data_ball, E=fields.E, curl=scene.system.curl)
        ag = hcurl_norm(scene.grid, g_region, E=fields.E, curl=scene.system.curl)
        az = hcurl_norm(scene.grid, scene.omega_region, E=fields.E, curl=scene.system.curl)
        return a1, ag, az

    rows = [one(i) for i in range(n_samples)]
    records = []
    triples = []
    for i, (a1, ag, az) in enumerate(rows):
        records.append({"sample": i, "seed": seed0 + 1000 + i, "ball_norm": a1,
                        "g_norm": ag, "omega_norm": az,
                        "chain_count": max(chain_counts), "cover_count": len(cover)})
        triples.append((a1, ag, az))
    fit = fit_holder(triples)
    delta, C = fit.params["tau"], fit.params["C"]
    resid = [np.log(b) - delta * np.log(a) - (1 - delta) * np.log(c) - np.log(C)
             for a, b, c in triples]
    flags = {
        "delta_interior": bool(1e-9 < delta < 1 - 1e-9),
        "bound_holds": bool(max(resid) <= cfg.tolerances["holder_residual_max"] + 1e-12),
        "chains_valid": True,
    }
    budgets = StabilityBudget(eta=max(t[0] for t in triples),
                              zeta=max(t[2] for t in triples)).as_dict()
    return Report("propagation", cfg.echo(), records, [fit.row()], flags, budgets,
                  wall_clock=time.time() - t0)


def _region_connected(region: geometry.Region):
    _, count = geometry.ndimage.label(region.mask, structure=geometry._CONN6)
    return count == 1


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def run_localization(cfg: ExperimentConfig, scene: Scene | None = None) -> Report:
    """Maximize field concentration on M against D through the spectral basis."""
    t0 = time.time()
    scene = scene or build_scene(cfg)
    spec = cfg.get("localization") or {}
    m_region = geometry.carve_region(scene.grid, cfg["regions"]["M"], role="subdomain_A")
    d_region = geometry.carve_region(scene.grid, cfg["regions"]["D"], role="exclusion_D")
    if np.any(m_region.mask & d_region.mask):
        raise GeometryError("localization regions M and D must be disjoint")
    collar = cfg["patch"]["collar"]
    w_m = build_norm_weights(scene.patch, m_region, collar=collar)
    w_d = build_norm_weights(scene.patch, d_region, collar=collar)
    op_m = runge_op.assemble_restriction(scene.system, w_m)
    op_d = runge_op.assemble_restriction(scene.system, w_d)
    eps_reg = float(spec.get("eps_reg", 1e-6))

    P = op_m.matrix.conj().T @ (w_m.x_weights()[:, None] * op_m.matrix)
    Q = op_d.matrix.conj().T @ (w_d.x_weights()[:, None] * op_d.matrix) \
        + eps_reg * w_m.gram_V
    P = 0.5 * (P + P.conj().T)
    Q = 0.5 * (Q + Q.conj().T)

    svd_m = runge_op.weighted_svd(op_m)
    cutoffs = [int(c) for c in spec.get("cutoffs", [10, 20, 50])]
    records = []
    top_quotient = None
    for cut in cutoffs:
        k = min(cut, svd_m.rank)
        basis = svd_m.phi[:, :k]
        Pk = basis.conj().T @ P @ basis
        Qk = basis.conj().T @ Q @ basis
        Pk = 0.5 * (Pk + Pk.conj().T)
        Qk = 0.5 * (Qk + Qk.conj().T)
        evals, evecs = sla.eigh(Pk, Qk)
        quotient = float(evals[-1])
        f = basis @ evecs[:, -1]
        fields = solver.solve_bvp(scene.system, _trace_from_v(w_m, f))
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
        q = _quotient(op_m, op_d, w_m, w_d, eps_reg, f)
        if q > top_quotient * (1 + 1e-9):
            beats = False
    growing = all(b["quotient"] >= a["quotient"] * (1 - 1e-9)
                  for a, b in zip(records, records[1:]))
    flags = {
        "quotient_threshold": bool(top_quotient >= cfg.tolerances["quotient_min"]),
        "maximizer_extremal": bool(beats),
        "quotient_nondecreasing_in_cutoff": bool(growing),
    }
    fits = [{"model": "rayleigh", "top_quotient": top_quotient, "eps_reg": eps_reg}]
    return Report("localization", cfg.echo(), records, fits, flags,
                  wall_clock=time.time() - t0)


def _trace_from_v(weights: analysis.NormWeights, f):
    values = np.zeros(weights.patch.n_dofs, dtype=complex)
    values[weights.v_sel] = f
    return solver.TangentialTrace(weights.patch, values)


def _quotient(op_m, op_d, w_m, w_d, eps_reg, f):
    num = w_m.x_norm(op_m.apply(f)) ** 2
    den = w_d.x_norm(op_d.apply(f)) ** 2 + eps_reg * w_m.v_norm(f) ** 2
    return num / den


RUNNERS = {
    "verify_solver": run_verify_solver,
    "runge": run_runge,
    "cauchy": run_cauchy,
    "three_balls": run_three_balls,
    "propagation": run_propagation,
    "localization": run_localization,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    return RUNNERS[cfg.tag](cfg)
