"""Closed-form time-harmonic fields in constant media.

Two families: transverse plane waves and magnetic point dipoles.  Both solve
the first-order system with the e^{i omega t} convention used throughout
(curl E = i omega mu H, curl H = -i omega eps E); the dipole uses the
radiating kernel g(r) = e^{ikr} / (4 pi r) and satisfies the system away
from its singularity, making it a genuine interior solution whenever the
source point lies outside the region of interest.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GeometryError
from .geometry import Grid
from .solver import (DIRECT_LIMIT, RESONANCE_THRESHOLD, SOLVER_TOL, FieldPair, SystemMatrix,
                     TangentialTrace, solve_bvp, assemble)
from .materials import make_material


class AnalyticSolution:
    """A closed-form (E, H) with pointwise evaluators."""

    def __init__(self, kind, omega, eps0, mu0, params):
        self.kind = kind
        self.omega = float(omega)
        self.eps0 = float(eps0)
        self.mu0 = float(mu0)
        self.params = params

    def E(self, points):
        return self._eval(points)[0]

    def H(self, points):
        return self._eval(points)[1]

    def _eval(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "plane_wave":
            k = self.params["k"]
            p = self.params["p"]
            phase = np.exp(1j * points @ k)
            E = p[None, :] * phase[:, None]
            Hvec = np.cross(k, p) / (self.omega * self.mu0)
            H = Hvec[None, :] * phase[:, None]
            return E, H
        if self.kind == "magnetic_dipole":
            return _dipole_fields(points, self.params["x0"], self.params["m"],
                                  self.omega, self.eps0, self.mu0)
        raise ConfigurationError(f"unknown analytic kind {self.kind!r}")

    def conjugate(self):
        params = dict(self.params)
        if self.kind == "plane_wave":
            params["p"] = np.conj(params["p"])
            params["k"] = -params["k"]
        else:
            params["m"] = np.conj(params["m"])
        sol = AnalyticSolution(self.kind, self.omega, self.eps0, self.mu0, params)
        sol._conjugated = not getattr(self, "_conjugated", False)
        return sol

    def singularity(self):
        return self.params.get("x0")


def plane_wave(k, p, omega, eps0=1.0, mu0=1.0) -> AnalyticSolution:
    """E = p exp(i k.x), H = (k x p)/(omega mu0) exp(i k.x).

    Requires transversality k.p = 0 and the dispersion relation
    |k|^2 = omega^2 eps0 mu0 (both to 1e-12 relative).
    """
    k = np.asarray(k, dtype=float)
    p = np.asarray(p, dtype=complex)
    if k.shape != (3,) or p.shape != (3,):
        raise ConfigurationError("k and p must be 3-vectors")
    scale = max(np.linalg.norm(k) * np.linalg.norm(p), 1e-300)
    if abs(k @ p) > 1e-12 * scale:
        raise ConfigurationError("polarization must be transverse: k . p = 0")
    disp = abs(k @ k - omega ** 2 * eps0 * mu0)
    if disp > 1e-12 * max(k @ k, 1.0):
        raise ConfigurationError(
            f"dispersion violated: |k|^2 = {k @ k:g} != omega^2 eps mu = {omega**2*eps0*mu0:g}")
    return AnalyticSolution("plane_wave", omega, eps0, mu0, {"k": k, "p": p})


def dipole_field(x0, m, omega, eps0=1.0, mu0=1.0) -> AnalyticSolution:
    """Magnetic point dipole at x0 with moment m in a homogeneous medium."""
    x0 = np.asarray(x0, dtype=float)
    m = np.asarray(m, dtype=complex)
    if x0.shape != (3,) or m.shape != (3,):
        raise ConfigurationError("x0 and m must be 3-vectors")
    return AnalyticSolution("magnetic_dipole", omega, eps0, mu0, {"x0": x0, "m": m})


def _dipole_fields(points, x0, m, omega, eps0, mu0):
    k = omega * np.sqrt(eps0 * mu0)
    rvec = points - x0
    r = np.linalg.norm(rvec, axis=1)
    if np.any(r == 0):
        raise GeometryError("dipole evaluated at its own singularity")
    rhat = rvec / r[:, None]
    g = np.exp(1j * k * r) / (4 * np.pi * r)
    gp = (1j * k - 1.0 / r) * g
    gpp = (1.0 / r ** 2 + (1j * k - 1.0 / r) ** 2) * g
    # E = i omega mu grad(g) x m;  H = k^2 g m + grad(m . grad g)
    E = 1j * omega * mu0 * gp[:, None] * np.cross(rhat, np.broadcast_to(m, rhat.shape))
    mdotr = rhat @ m
    H = (k ** 2 * g)[:, None] * m[None, :] \
        + gpp[:, None] * mdotr[:, None] * rhat \
        + (gp / r)[:, None] * (m[None, :] - mdotr[:, None] * rhat)
    return E, H


def sample_on_grid(sol: AnalyticSolution, grid: Grid, min_clearance=None) -> FieldPair:
    """Point-sample E at edge midpoints (tangential component) and H at face
    centers (normal component)."""
    x0 = sol.singularity()
    pts_e = grid.edge_midpoints()
    pts_f = grid.face_centers()
    if x0 is not None:
        clearance = 2 * grid.h if min_clearance is None else min_clearance
        lo = grid.origin
        hi = grid.origin + np.array(grid.n) * grid.h
        inside = np.all((x0 >= lo) & (x0 <= hi))
        near = min(np.min(np.linalg.norm(pts_e - x0, axis=1)),
                   np.min(np.linalg.norm(pts_f - x0, axis=1)))
        if inside or near < clearance:
            raise GeometryError(
                f"dipole singularity {x0} too close to the grid (min distance {near:g})")
    E3 = sol.E(pts_e)
    H3 = sol.H(pts_f)
    comp_e = grid.edge_components()
    comp_f = grid.face_components()
    E = E3[np.arange(grid.n_edges), comp_e]
    H = H3[np.arange(grid.n_faces), comp_f]
    return FieldPair(grid, E, H)


def trace_of(sol: AnalyticSolution, patch) -> TangentialTrace:
    """Tangential data of an analytic solution on a boundary patch."""
    grid = patch.grid
    pts = grid.edge_midpoints()[patch.edge_dofs]
    comp = grid.edge_components()[patch.edge_dofs]
    vals = sol.E(pts)[np.arange(len(pts)), comp]
    return TangentialTrace(patch, vals)


def convergence_study(sol: AnalyticSolution, grids, omega=None, material_spec=None, *,
                      resonance_threshold=RESONANCE_THRESHOLD, solver_tol=SOLVER_TOL,
                      direct_limit=DIRECT_LIMIT):
    """Solve the boundary-value problem with the solution's own trace on a
    sequence of nested grids; report discrete L2 errors and successive orders.

    The solver settings are passed to ``assemble`` on every level.  Returns a
    list of (h, relative_error, order) with order = None on the coarsest
    level.
    """
    grids = list(grids)
    if len(grids) < 2:
        raise ConfigurationError("convergence study needs at least two grids")
    for a, b in zip(grids[:-1], grids[1:]):
        if not all(b.n[d] == 2 * a.n[d] for d in range(3)):
            raise ConfigurationError("grids must refine by factor two per level")
    omega = sol.omega if omega is None else omega
    spec = material_spec or {"kind": "constant", "eps": sol.eps0, "mu": sol.mu0}

    rows = []
    prev = None
    for grid in grids:
        mat = make_material(grid, spec)
        sys_ = assemble(grid, mat, omega, resonance_threshold=resonance_threshold,
                        solver_tol=solver_tol, direct_limit=direct_limit)
        rel = discretization_error(sol, sys_)
        order = None if prev is None else float(np.log2(prev / rel))
        rows.append((grid.h, rel, order))
        prev = rel
    return rows


def discretization_error(sol: AnalyticSolution, sys: SystemMatrix) -> float:
    """Relative discrete L2 error of E when the boundary-value problem of
    ``sys`` is solved with the solution's own tangential trace on the whole
    boundary."""
    grid = sys.grid
    exact = sample_on_grid(sol, grid)
    approx = solve_bvp(sys, trace_of(sol, _whole_boundary(grid)))
    ones = np.ones(grid.n, dtype=bool)
    w = grid.edge_cell_adjacency_weights(ones) * grid.h ** 3
    err = np.sqrt(float(np.sum(w * np.abs(approx.E - exact.E) ** 2)))
    ref = np.sqrt(float(np.sum(w * np.abs(exact.E) ** 2)))
    return err / ref


def _whole_boundary(grid: Grid):
    """A patch spanning all six sides, carrying every tangential boundary edge."""
    from .geometry import boundary_patch, _SIDES

    return boundary_patch(grid, list(_SIDES))
