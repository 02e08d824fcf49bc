"""Discrete norms and stability-constant fitting.

Volume norms collocate the staggered components at cell centers and apply
midpoint quadrature; they are exact for constant fields.  The boundary
trace norm is a declared surrogate for the H^{-1/2}-type spaces: with M the
diagonal area mass and S a unit-weight graph Laplacian on the patch dofs,
the Gram is

    G_V = M^{1/2} (I + M^{-1/2} S M^{-1/2})^{-1/2} M^{1/2},

computed by dense eigendecomposition and stored only as its Cholesky factor
L: the norm is ||L^T f||, and every solve, whitening and weighted SVD goes
through L.  The mass-normalized spectrum of the smoothing operator is >= 1,
so the surrogate norm never exceeds the plain L2 norm of the trace.  It depends on the patch and collar only: one
TraceGram serves every region restricted through that trace side, and each
region's VolumeWeights are diagonal and need no Gram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConfigurationError, NumericError, SizeError
from .geometry import Grid, Region, BoundaryPatch
from .solver import TangentialTrace, curl_matrix, real_matmul

DENSE_GRAM_LIMIT = 4000


# ---------------------------------------------------------------------------
# center collocation and volume norms
# ---------------------------------------------------------------------------

def _lp_of_magnitudes(mag, h, p):
    if p == np.inf:
        return float(mag.max(initial=0.0))
    return float((np.sum(mag ** p) * h ** 3) ** (1.0 / p))


def lp_norm(grid: Grid, region: Region, p, E=None, H=None):
    """Volume-weighted Lp norm of the pointwise Euclidean magnitude.

    With both E and H given the 6-vector magnitude is used.
    """
    if not (p >= 1):
        raise ConfigurationError("p must be >= 1 (np.inf allowed)")
    sel = region.mask.reshape(-1)
    mags2 = np.zeros(int(sel.sum()))
    if E is not None:
        v = grid.cell_means(np.asarray(E, dtype=complex), "edge")[sel]
        mags2 = mags2 + np.sum(np.abs(v) ** 2, axis=1)
    if H is not None:
        v = grid.cell_means(np.asarray(H, dtype=complex), "face")[sel]
        mags2 = mags2 + np.sum(np.abs(v) ** 2, axis=1)
    return _lp_of_magnitudes(np.sqrt(mags2), grid.h, p)


def hcurl_norm(grid: Grid, region: Region, E=None, H=None, curl=None):
    """sqrt(L2^2 + L2(curl)^2) on a region using the discrete curl.

    ``curl`` is the edge->face curl matrix; its transpose acts as the dual
    face->edge curl (zero-extended at the boundary).
    """
    C = curl_matrix(grid) if curl is None else curl
    total = 0.0
    if E is not None:
        E = np.asarray(E, dtype=complex)
        total += lp_norm(grid, region, 2, E=E) ** 2
        total += lp_norm(grid, region, 2, H=C @ E) ** 2
    if H is not None:
        H = np.asarray(H, dtype=complex)
        total += lp_norm(grid, region, 2, H=H) ** 2
        total += lp_norm(grid, region, 2, E=C.T @ H) ** 2
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# weighted inner products
# ---------------------------------------------------------------------------

class TraceGram:
    """The boundary trace space V of one (patch, collar): the dense SPD Gram
    over the selected patch dofs, held only as its Cholesky factor.  Built
    once and shared by every region restricted through the same trace side."""

    def __init__(self, patch: BoundaryPatch, collar, v_sel, chol_V):
        self.patch = patch
        self.collar = collar
        self.v_sel = v_sel                      # positions into patch.edge_dofs
        self.v_dofs = patch.edge_dofs[v_sel]    # global edge indices
        self.chol_V = chol_V                    # lower triangular, G_V = L L^T

    @property
    def n_v(self):
        return len(self.v_dofs)

    def v_inner(self, f, g):
        """<f, g>_V = (L^T g)^H (L^T f), linear in f, conjugate-linear in g."""
        return complex(np.conj(real_matmul(self.chol_V.T, g)) @ real_matmul(self.chol_V.T, f))

    def v_norm(self, f):
        return float(np.linalg.norm(real_matmul(self.chol_V.T, f)))

    def v_solve(self, rhs):
        """Apply G_V^{-1} through the Cholesky factor."""
        y = sla.solve_triangular(self.chol_V, rhs, lower=True)
        return sla.solve_triangular(self.chol_V.T, y, lower=False)

    def trace(self, f):
        """The tangential trace carrying ``f`` on the selected dofs, zero on
        the rest of the patch."""
        values = np.zeros(self.patch.n_dofs, dtype=complex)
        values[self.v_sel] = f
        return TangentialTrace(self.patch, values)


class VolumeWeights:
    """The interior space X of one region: diagonal volume weights over the
    region-restricted (E, H) dofs, stored as index lists plus weight
    vectors."""

    def __init__(self, region: Region):
        self.region = region
        grid = region.grid
        we = grid.dof_volumes("edge", region.mask)
        wf = grid.dof_volumes("face", region.mask)
        self.x_edge_idx = np.flatnonzero(we > 0)
        self.x_edge_w = we[self.x_edge_idx]
        self.x_face_idx = np.flatnonzero(wf > 0)
        self.x_face_w = wf[self.x_face_idx]

    @property
    def n_x(self):
        return len(self.x_edge_idx) + len(self.x_face_idx)

    def x_weights(self):
        return np.concatenate([self.x_edge_w, self.x_face_w])

    def x_inner(self, u, v):
        w = self.x_weights()
        return complex(np.sum(w * u * np.conj(v)))

    def x_norm(self, u):
        return float(np.sqrt(max(self.x_inner(u, u).real, 0.0)))

    def restrict(self, fields):
        """The region-restricted dofs of a FieldPair with real E and purely
        imaginary H, the field of real boundary data in a real medium, as
        the real vector (E.real, H.imag).  Any other field raises
        NumericError carrying its largest off-phase entry."""
        E, H = fields.E[self.x_edge_idx], fields.H[self.x_face_idx]
        off = max(np.abs(E.imag).max(initial=0.0), np.abs(H.real).max(initial=0.0))
        if off:
            raise NumericError(
                f"restricted field has an off-phase entry of size {off:.3e} "
                "(needs real E and imaginary H)", history=[float(off)])
        return np.concatenate([E.real, H.imag])


def _patch_graph_laplacian(patch: BoundaryPatch, sel):
    """Unit-weight Laplacian connecting dofs that share a patch face."""
    pos = np.full(patch.n_dofs, -1)
    pos[sel] = np.arange(len(sel))
    members = pos[patch.face_edges]
    pairs = members[:, list(itertools.combinations(range(4), 2))].reshape(-1, 2)
    u, v = pairs[(pairs >= 0).all(axis=1)].T
    S = np.zeros((len(sel), len(sel)))
    # integer-valued, so the accumulation order does not matter
    np.add.at(S, (np.concatenate([u, v, u, v]), np.concatenate([u, v, v, u])),
              np.repeat([1.0, 1.0, -1.0, -1.0], len(u)))
    return S


def build_norm_weights(patch: BoundaryPatch, collar="include_rim") -> TraceGram:
    """Assemble the trace Gram of a patch and collar and keep its factor.

    The V Gram applies the inverse square root of the mass-normalized
    (identity plus graph Laplacian) by dense eigendecomposition; patches
    beyond 4000 dofs are rejected.  Only its Cholesky factor is returned.
    """
    sel = patch.select(collar)
    if len(sel) == 0:
        raise ConfigurationError("collar selection leaves no patch dofs")
    if len(sel) > DENSE_GRAM_LIMIT:
        raise SizeError(
            f"patch carries {len(sel)} dofs; dense eigendecomposition is capped at "
            f"{DENSE_GRAM_LIMIT}, coarsen the patch or the grid")
    mass = patch.edge_area[sel]
    S = _patch_graph_laplacian(patch, sel)
    rsqrt_mass = 1.0 / np.sqrt(mass)
    S_norm = rsqrt_mass[:, None] * S * rsqrt_mass[None, :]
    S_norm = 0.5 * (S_norm + S_norm.T)
    evals, evecs = np.linalg.eigh(np.eye(len(sel)) + S_norm)
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
    sqrt_mass = np.sqrt(mass)
    gram = sqrt_mass[:, None] * inv_sqrt * sqrt_mass[None, :]
    return TraceGram(patch, collar, sel, np.linalg.cholesky(0.5 * (gram + gram.T)))


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    model: str
    params: dict
    r2: float
    n: int
    flag: str | None = None

    EXPONENT_KEYS = {"holder": "tau", "log_modulus": "m", "power": "delta"}

    def exponent(self):
        return self.params[self.EXPONENT_KEYS[self.model]]

    def row(self):
        return {"model": self.model, "C": self.params["C"],
                "exponent": self.exponent(), "r2": self.r2, "n": self.n,
                "flag": self.flag or ""}


def r_squared(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-28 else 0.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def fit_line(x, y):
    """Least-squares line y ~= slope x + intercept: (slope, intercept, r2)."""
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, r_squared(y, slope * x + intercept)


# a Holder fit whose constant C exceeds this is flagged as giving no useful bound
HOLDER_C_FLAG = 1e6


def fit_holder(triples) -> FitResult:
    """Fit a2 <= C a1^tau a3^(1-tau) over positive triples.

    tau minimizes the spread of r_i(tau) = log a2 - tau log a1 - (1-tau) log a3
    (a one-dimensional convex search); log C is then set to the max residual so
    the bound holds with equality at the worst sample.  Data that admit no
    bound with C below ``HOLDER_C_FLAG`` are flagged.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != 3 or len(triples) < 3:
        raise ConfigurationError("fit_holder needs at least 3 (a1, a2, a3) triples")
    if np.any(triples <= 0):
        raise ConfigurationError("holder fit requires strictly positive values")
    la1, la2, la3 = np.log(triples).T

    def spread(tau):
        r = la2 - tau * la1 - (1 - tau) * la3
        return r.max() - r.min()

    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if spread(m1) <= spread(m2):
            hi = m2
        else:
            lo = m1
    tau = float(np.clip(0.5 * (lo + hi), 1e-9, 1 - 1e-9))
    resid = la2 - tau * la1 - (1 - tau) * la3
    logC = float(resid.max())
    # goodness of the centered log-linear model
    yhat = tau * la1 + (1 - tau) * la3 + np.median(resid)
    r2 = r_squared(la2, yhat)
    C = float(np.exp(logC))
    flag = "no_bound_below_threshold" if C > HOLDER_C_FLAG else None
    return FitResult("holder", {"C": C, "tau": tau}, r2, len(triples), flag)


def fit_log_modulus(pairs) -> FitResult:
    """Least squares of log e on log log(1/t): e(t) ~= C (log 1/t)^(-m)."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) < 4:
        raise ConfigurationError("fit_log_modulus needs at least 4 (t, e) pairs")
    t, e = pairs.T
    if np.any((t <= 0) | (t >= 1)):
        raise ConfigurationError("abscissae must lie strictly inside (0, 1)")
    if np.any(e <= 0):
        raise ConfigurationError("values must be positive")
    slope, intercept, r2 = fit_line(np.log(np.log(1.0 / t)), np.log(e))
    m = float(-slope)
    C = float(np.exp(intercept))
    flag = "non_decaying" if m <= 0 else None
    return FitResult("log_modulus", {"C": C, "m": m}, r2, len(pairs), flag)


def fit_power(pairs) -> FitResult:
    """Least squares of log e on log j: e(j) ~= C j^(-delta)."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) < 2:
        raise ConfigurationError("fit_power needs at least 2 (j, e) pairs")
    j, e = pairs.T
    if np.any(j <= 0) or np.any(e <= 0):
        raise ConfigurationError("power fit requires positive data")
    slope, intercept, r2 = fit_line(np.log(j), np.log(e))
    flag = "non_decaying" if -slope <= 0 else None
    return FitResult("power", {"C": float(np.exp(intercept)), "delta": float(-slope)},
                     r2, len(pairs), flag)
