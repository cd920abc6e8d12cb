"""Numerical substrate for the Diffusive Logistic reproduction.

This package implements, from scratch, every numerical tool the paper relies
on:

* :mod:`repro.numerics.grid` -- uniform spatial grids over the distance axis.
* :mod:`repro.numerics.spline` -- natural/clamped cubic-spline interpolation
  (the paper uses Matlab's cubic spline package to build the initial density
  function phi).
* :mod:`repro.numerics.finite_difference` -- second-order spatial operators
  with Neumann (no-flux) boundary conditions.
* :mod:`repro.numerics.integrators` -- explicit Euler, RK4 and Crank-Nicolson
  time steppers.
* :mod:`repro.numerics.operator_cache` -- process-wide cache of prefactorized
  diffusion operators, keyed by (grid, dt, d, mode) and shared across solves;
  the tridiagonal Neumann operator is stored banded (LAPACK ``gttrf``) or as
  a pure-numpy Thomas factorization, with dense LU as the reference mode.
* :mod:`repro.numerics.backends` -- the pluggable solver-backend registry
  (``"internal"``, ``"scipy"``, and anything registered at
  runtime) plus the vectorised Crank-Nicolson engine behind batched solves.
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
    NeumannLaplacian,
    laplacian_matrix,
    laplacian_tridiagonal,
    second_derivative,
)
from repro.numerics.integrators import (
    CrankNicolsonIntegrator,
    ExplicitEulerIntegrator,
    RungeKutta4Integrator,
    TimeIntegrator,
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
    PDESolution,
    ReactionDiffusionProblem,
    ReactionDiffusionSolver,
)
from repro.numerics.backends import (
    SolverBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
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
    least_squares_fit,
    mean_relative_error,
    multi_start_least_squares,
    sum_of_squares,
)

__all__ = [
    "UniformGrid",
    "CubicSpline",
    "FlatEndDensityInterpolator",
    "NeumannLaplacian",
    "laplacian_matrix",
    "laplacian_tridiagonal",
    "second_derivative",
    "TimeIntegrator",
    "ExplicitEulerIntegrator",
    "RungeKutta4Integrator",
    "CrankNicolsonIntegrator",
    "cache_stats",
    "clear_operator_caches",
    "crank_nicolson_operator",
    "OPERATOR_MODES",
    "DenseFactorization",
    "BandedFactorization",
    "ThomasFactorization",
    "ReactionDiffusionProblem",
    "BatchReactionDiffusionProblem",
    "ReactionDiffusionSolver",
    "PDESolution",
    "BatchPDESolution",
    "SolverBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "unregister_backend",
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
    "grid_search",
    "sum_of_squares",
    "mean_relative_error",
]
