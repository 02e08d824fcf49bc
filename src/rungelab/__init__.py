"""Frequency-domain Maxwell laboratory.

Staggered-grid solver for the time-harmonic system, boundary-to-interior
restriction operators with weighted SVDs, one spectral-filter kernel for
truncated approximants and ridge solves, and experiment drivers measuring
approximation decay, Cauchy-data stability and propagation-of-smallness
constants.
"""

from .geometry import (Grid, Region, BoundaryPatch, BallChain, build_grid, carve_region,
                       interior_margin, boundary_patch, chain_of_balls, cube_cover)
from .materials import MaterialField, make_material, lipschitz_bound
from .solver import (SystemMatrix, FieldPair, TangentialTrace, SourceTerm, assemble,
                     solve_bvp, solve_source, derive_H_from_E, residual, resonance_guard,
                     curl_matrix, divergence_matrix, mimetic_defect)
from .oracle import AnalyticSolution, plane_wave, dipole_field, sample_on_grid, convergence_study
from .analysis import (TraceGram, VolumeWeights, FitResult, lp_norm, hcurl_norm,
                       build_norm_weights, fit_holder, fit_log_modulus, fit_power)
from .runge_op import (RestrictionOperator, SvdBundle, Expansion, assemble_restriction,
                       apply_adjoint, matrix_adjoint, weighted_svd, alpha_for_j)

__version__ = "0.1.0"
