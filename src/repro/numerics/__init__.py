"""Numerical substrate for the Diffusive Logistic reproduction.

This package implements, from scratch, every numerical tool the paper relies
on:

* :mod:`repro.numerics.grid` -- uniform spatial grids over the distance axis.
* :mod:`repro.numerics.spline` -- natural/clamped cubic-spline interpolation
  (the paper uses Matlab's cubic spline package to build the initial density
  function phi).
* :mod:`repro.numerics.finite_difference` -- second-order spatial operators
  with Neumann (no-flux) boundary conditions.
* :mod:`repro.numerics.operator_cache` -- process-wide cache of prefactorized
  diffusion operators, keyed by (grid, dt, d, mode) and shared across solves;
  the tridiagonal Neumann operator is stored as a symmetric LDL^T (LAPACK
  ``pttrf``) or its pure-numpy Thomas twin, with dense LU as the reference
  mode.
* :mod:`repro.numerics.backends` -- the solver backends (``"internal"``,
  ``"scipy"``, and anything registered in ``BACKENDS`` at runtime); the
  internal one is the package's only time stepper, a vectorised
  Crank-Nicolson engine that solves one problem as a batch of one.
* :mod:`repro.numerics.pde_solver` -- a method-of-lines reaction-diffusion
  solver used by the DL model, with sequential and batched entry points.
* :mod:`repro.numerics.ode` -- the scalar logistic equation (analytic and
  numeric, with a vectorised batch axis), used both by the growth-process
  model and by the temporal-only baseline.
* :mod:`repro.numerics.optimization` -- least-squares fitting utilities used
  for parameter calibration.
"""

from repro.numerics.grid import UniformGrid
from repro.numerics.spline import CubicSpline, FlatEndDensityInterpolator
from repro.numerics.finite_difference import (
    laplacian_matrix,
    laplacian_tridiagonal,
    second_derivative,
)
from repro.numerics.operator_cache import (
    OPERATOR_MODES,
    BandedFactorization,
    DenseFactorization,
    ThomasFactorization,
    cache_stats,
    clear_operator_caches,
    crank_nicolson_operator,
)
from repro.numerics.pde_solver import (
    BatchPDESolution,
    BatchReactionDiffusionProblem,
    LogisticReaction,
    PDESolution,
    ReactionDiffusionProblem,
    ReactionDiffusionSolver,
)
from repro.numerics.backends import BACKENDS, SolverBackend, get_backend
from repro.numerics.ode import (
    LogisticCurve,
    fit_logistic_curve,
    fit_logistic_curves,
    logistic_value,
    solve_logistic_ode,
)
from repro.numerics.optimization import (
    FitResult,
    MultiStartFitResult,
    grid_candidates,
    grid_search,
    grouped_multi_start_least_squares,
    least_squares_fit,
    mean_relative_error,
    multi_start_least_squares,
    sum_of_squares,
)

__all__ = [
    "UniformGrid",
    "CubicSpline",
    "FlatEndDensityInterpolator",
    "laplacian_matrix",
    "laplacian_tridiagonal",
    "second_derivative",
    "cache_stats",
    "clear_operator_caches",
    "crank_nicolson_operator",
    "OPERATOR_MODES",
    "DenseFactorization",
    "BandedFactorization",
    "ThomasFactorization",
    "ReactionDiffusionProblem",
    "BatchReactionDiffusionProblem",
    "LogisticReaction",
    "ReactionDiffusionSolver",
    "PDESolution",
    "BatchPDESolution",
    "SolverBackend",
    "BACKENDS",
    "get_backend",
    "LogisticCurve",
    "logistic_value",
    "solve_logistic_ode",
    "fit_logistic_curve",
    "fit_logistic_curves",
    "FitResult",
    "MultiStartFitResult",
    "grid_candidates",
    "least_squares_fit",
    "multi_start_least_squares",
    "grouped_multi_start_least_squares",
    "grid_search",
    "sum_of_squares",
    "mean_relative_error",
]
