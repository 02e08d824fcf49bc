"""Cellwise symmetric permittivity/permeability tensor fields.

Tensors are stored per cell as (nx, ny, nz, 3, 3) arrays of relative values.
Construction validates symmetry, the two-sided eigenvalue bound (eigenvalues
of every cell tensor inside [c, 1/c]) and computes the discrete W^{1,inf}
bound M from entries and one-sided difference quotients.  A uniform medium,
every cell bitwise equal to the first, runs these checks and the inverse of
mu on that one tensor: every cell would give the same numbers, and each
difference quotient is exactly zero.
"""

from __future__ import annotations

import numpy as np

from . import store
from .errors import MaterialError, ConfigurationError
from .geometry import Grid

KINDS = ("constant", "layered", "smooth")
# the defaults of the kinds' keys, which the config table reads too; layered
# breakpoints and tensors have none
DEFAULTS = {"eps": 1.0, "mu": 1.0, "axis": 0, "smoothing": 0.0,
            "seed": 0, "amplitude": 0.3, "modes": 3, "max_wavenumber": 2}


class MaterialField:
    """Per-cell (eps, mu) tensors plus the ellipticity constant and Lipschitz bound."""

    def __init__(self, grid: Grid, eps, mu, spec=None):
        self.grid = grid
        self.eps = np.ascontiguousarray(eps, dtype=float)
        self.mu = np.ascontiguousarray(mu, dtype=float)
        expected = grid.n + (3, 3)
        for name, t in (("eps", self.eps), ("mu", self.mu)):
            if t.shape != expected:
                raise MaterialError(f"{name} shape {t.shape} != {expected}")
        self.uniform = all(bool((t == t[0, 0, 0]).all()) for t in (self.eps, self.mu))
        for name, t in (("eps", self.cells(self.eps)), ("mu", self.cells(self.mu))):
            if not np.allclose(t, np.swapaxes(t, -1, -2), rtol=0, atol=1e-13):
                raise MaterialError(f"{name} tensors are not symmetric")
        self.spec = dict(spec) if spec else {}
        ev = np.concatenate([_cell_eigenvalues(self.cells(self.eps)),
                             _cell_eigenvalues(self.cells(self.mu))])
        lo, hi = float(ev.min()), float(ev.max())
        if lo <= 0:
            raise MaterialError(f"nonpositive tensor eigenvalue {lo:g}")
        self.c = min(lo, 1.0 / hi)
        self.M = lipschitz_bound(self)
        self.eps.flags.writeable = False
        self.mu.flags.writeable = False

    def cells(self, t):
        """The tensors of ``t`` that differ: its first cell, as a (1, 1, 1, 3, 3)
        block, in a uniform medium, else all of them."""
        return t[:1, :1, :1] if self.uniform else t

    def mu_inv(self):
        """Per-cell mu^-1, read-only: one inverse broadcast over a uniform medium."""
        return np.broadcast_to(np.linalg.inv(self.cells(self.mu)), self.mu.shape)

    def key(self):
        return ("material", self.spec.get("kind", "custom"),
                store.array_digest(self.eps, self.mu))

    def __repr__(self):
        return f"MaterialField(kind={self.spec.get('kind', 'custom')!r}, c={self.c:g}, M={self.M:g})"


def _cell_eigenvalues(tensors):
    return np.linalg.eigvalsh(tensors).reshape(-1)


def _as_tensor(value):
    t = np.asarray(value, dtype=float)
    if t.ndim == 0:
        return float(t) * np.eye(3)
    if t.shape == (3,):
        return np.diag(t)
    if t.shape == (3, 3):
        return t
    raise MaterialError(f"cannot interpret {t.shape} as a 3x3 tensor")


def scalar_medium(spec):
    """(eps, mu) of the analytic oracles; raises on a non-scalar eps or mu."""
    eps, mu = (spec.get(k, DEFAULTS[k]) for k in ("eps", "mu"))
    if np.ndim(eps) or np.ndim(mu):
        raise ConfigurationError(
            f"the analytic oracles need scalar eps and mu; material kind "
            f"{spec.get('kind')!r} has eps={eps!r}, mu={mu!r}")
    return float(eps), float(mu)


def make_material(grid: Grid, spec) -> MaterialField:
    """Build a material field from a spec dict.

    Kinds:
      constant: {"eps": t, "mu": t} with scalars, diagonals or 3x3 tensors.
      layered:  piecewise tensors along an axis with a linear transition of
                width >= one cell (a sharp jump violates the Lipschitz rule).
      smooth:   seeded random Fourier superposition with a budgeted amplitude
                in (0, 1), guaranteeing the eigenvalue window for every seed.

    An absent key takes its ``DEFAULTS`` entry; ``experiments.normalize_config``
    checks every kind's keys before a material is built.
    """
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ConfigurationError(f"unknown material kind {kind!r}")
    build = {"constant": _constant, "layered": _layered, "smooth": _smooth}[kind]
    return MaterialField(grid, *build(grid, {**DEFAULTS, **spec}), spec)


def _uniform(grid: Grid, t):
    return np.broadcast_to(_as_tensor(t), grid.n + (3, 3)).copy()


def _constant(grid: Grid, p):
    return _uniform(grid, p["eps"]), _uniform(grid, p["mu"])


def _layered(grid: Grid, p):
    axis = int(p["axis"])
    breaks = [float(b) for b in p["breakpoints"]]
    tensors = [_as_tensor(t) for t in p["tensors"]]
    width = float(p["smoothing"])
    if width < grid.h:
        raise MaterialError(
            f"layered transition width {width:g} below one cell ({grid.h:g}); "
            "a sharp jump has no W^{1,inf} bound")
    coord_full = grid.cell_centers()[:, axis].reshape(grid.n)
    field = np.empty(grid.n + (3, 3))
    field[:] = tensors[0]
    for b, t_prev, t_next in zip(breaks, tensors[:-1], tensors[1:]):
        # linear ramp of the given width centered on the breakpoint
        s = np.clip((coord_full - (b - width / 2)) / width, 0.0, 1.0)
        field = field * (1 - s[..., None, None]) + t_next * s[..., None, None]
    return field, _uniform(grid, p["mu"])


def _smooth(grid: Grid, p):
    seed, amplitude = int(p["seed"]), float(p["amplitude"])
    n_modes, max_wavenumber = int(p["modes"]), int(p["max_wavenumber"])
    rng = np.random.default_rng(seed)
    centers = grid.cell_centers()

    def scalar_field():
        vals = np.ones(len(centers))
        weights = rng.uniform(0.5, 1.0, size=n_modes)
        weights *= amplitude / weights.sum()
        for w in weights:
            k = rng.integers(-max_wavenumber, max_wavenumber + 1, size=3)
            phase = rng.uniform(0, 2 * np.pi)
            vals += w * np.cos(2 * np.pi * centers @ k + phase)
        return vals

    basis = _random_rotation(rng)
    lams = np.stack([scalar_field() for _ in range(3)], axis=-1)
    field = np.einsum("ia,na,ja->nij", basis, lams, basis).reshape(grid.n + (3, 3))
    field = 0.5 * (field + np.swapaxes(field, -1, -2))
    lams_mu = np.stack([scalar_field() for _ in range(3)], axis=-1)
    mu = np.einsum("ia,na,ja->nij", basis, lams_mu, basis).reshape(grid.n + (3, 3))
    return field, 0.5 * (mu + np.swapaxes(mu, -1, -2))


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def lipschitz_bound(mat: MaterialField):
    """Discrete W^{1,inf} bound: max of entries and one-sided difference quotients."""
    h = mat.grid.h
    m = 0.0
    for t in (mat.cells(mat.eps), mat.cells(mat.mu)):
        m = max(m, float(np.abs(t).max()))
        for axis in range(3):
            d = np.abs(np.diff(t, axis=axis)) / h
            if d.size:
                m = max(m, float(d.max()))
    return m
