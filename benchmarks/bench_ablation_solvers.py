"""ABL-2 -- Solver and resolution ablation for the DL equation.

DESIGN.md calls out two numerical design choices worth quantifying:

* the solver backend (the internal Crank-Nicolson engine vs scipy LSODA),
* the spatial resolution (grid points per unit of distance).

This benchmark solves the paper's Figure-7a problem (phi from the hour-1
snapshot of story s1, paper parameters) with each configuration, times the
solve with pytest-benchmark, and checks that all configurations agree on the
hour-6 profile -- i.e. the headline results do not depend on the numerical
scheme.  The internal engine at the default 20 points per unit is the
``test_solver_ablation_grid_resolution[20]`` case.
"""

import numpy as np
import pytest

from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS

HOURS = [float(t) for t in range(1, 7)]


@pytest.fixture(scope="module")
def phi(bench_context):
    surface = bench_context.dataset.hop_density_surface("s1")
    return InitialDensity.from_surface(surface)


@pytest.fixture(scope="module")
def reference_profile(phi):
    """High-resolution Crank-Nicolson reference solution at hour 6."""
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=60, max_step=0.005
    )
    return model.solve(phi, HOURS).profile(6.0)


def test_solver_ablation_scipy_backend(benchmark, phi, reference_profile):
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=20, max_step=0.1, backend="scipy"
    )
    solution = benchmark(model.solve, phi, HOURS)
    assert np.allclose(solution.profile(6.0), reference_profile, rtol=1e-2, atol=1e-2)


@pytest.mark.parametrize("points_per_unit", [5, 10, 20, 40])
def test_solver_ablation_grid_resolution(benchmark, phi, reference_profile, points_per_unit):
    model = DiffusiveLogisticModel(
        PAPER_S1_HOP_PARAMETERS, points_per_unit=points_per_unit, max_step=0.02
    )
    solution = benchmark(model.solve, phi, HOURS)
    profile = solution.profile(6.0)
    # Even the coarsest grid should be within a few percent of the reference;
    # finer grids must converge towards it.
    tolerance = 0.05 if points_per_unit <= 5 else 0.02
    assert np.allclose(profile, reference_profile, rtol=tolerance, atol=tolerance)
