"""Tests for the Diffusive Logistic model itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dl_model import DiffusiveLogisticModel
from repro.core.initial_density import InitialDensity
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS, dl_parameters
from repro.core.properties import check_solution_bounds, check_strictly_increasing
from repro.numerics.ode import LogisticCurve

PHI = InitialDensity([1, 2, 3, 4, 5], [5.0, 2.0, 2.5, 1.5, 1.0])
HOURS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


class TestConstruction:
    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=1)

    def test_accessors(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS)
        assert model.parameters is PAPER_S1_HOP_PARAMETERS
        assert model.solver.backend == "internal"


class TestSolveBasics:
    def test_solution_contains_initial_profile(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        solution = model.solve(PHI, HOURS)
        assert np.allclose(solution.profile(1.0), PHI.densities, atol=1e-6)

    def test_initial_time_always_added(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        solution = model.solve(PHI, [3.0, 6.0])
        assert 1.0 in solution.times

    def test_predict_returns_surface(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        surface = model.predict(PHI, HOURS)
        assert surface.values.shape == (6, 5)
        assert list(surface.distances) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert surface.unit == "percent"

    def test_density_at_point(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        solution = model.solve(PHI, HOURS)
        assert solution.density_at(1.0, 1.0) == pytest.approx(5.0, abs=1e-6)
        assert solution.density_at(1.0, 6.0) > 5.0

    def test_custom_distances_sampled(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        surface = model.predict(PHI, [2.0], distances=[1.5, 2.5])
        assert list(surface.distances) == [1.5, 2.5]


class TestPaperProperties:
    """Numerical verification of Section II-C."""

    def _solve(self, **model_kwargs):
        defaults = dict(points_per_unit=15, max_step=0.02)
        defaults.update(model_kwargs)
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, **defaults)
        return model.solve(PHI, np.arange(1.0, 25.0))

    def test_unique_property_bounds(self):
        """0 <= I(x, t) <= K at all times."""
        solution = self._solve()
        assert check_solution_bounds(solution)
        assert np.all(solution.pde_solution.states >= -1e-9)
        assert np.all(solution.pde_solution.states <= 25.0 + 1e-6)

    def test_strictly_increasing_property(self):
        """With phi a lower solution, I(x, t) increases in t at every x."""
        solution = self._solve()
        assert check_strictly_increasing(solution)
        # Strict growth at a point well below the carrying capacity.
        early = solution.density_at(3.0, 1.0)
        late = solution.density_at(3.0, 20.0)
        assert late > early + 0.5

    def test_long_run_limit_is_carrying_capacity(self):
        """As t -> infinity every point approaches K (the stable equilibrium)."""
        model = DiffusiveLogisticModel(
            dl_parameters(0.01, 0.5, 25.0), points_per_unit=10, max_step=0.05
        )
        solution = model.solve(PHI, [80.0])
        assert np.allclose(solution.profile(80.0), 25.0, atol=0.2)

    def test_scipy_backend_agrees_with_internal(self):
        cn = self._solve()
        scipy_solution = self._solve(backend="scipy", max_step=0.1)
        assert np.allclose(cn.profile(6.0), scipy_solution.profile(6.0), rtol=3e-3, atol=1e-3)


class TestModelBehaviour:
    def test_zero_diffusion_limit_matches_independent_logistic(self):
        """With a (numerically) negligible diffusion rate and constant r the
        solution at each observation point follows the scalar logistic curve."""
        params = dl_parameters(1e-8, 0.6, 25.0)
        model = DiffusiveLogisticModel(params, points_per_unit=10, max_step=0.02)
        solution = model.solve(PHI, HOURS)
        for distance, initial in zip(PHI.distances, PHI.densities):
            curve = LogisticCurve(0.6, 25.0, initial, initial_time=1.0)
            assert solution.density_at(distance, 6.0) == pytest.approx(curve(6.0), rel=2e-3)

    def test_diffusion_smooths_the_profile(self):
        """A larger diffusion rate reduces the spatial variance of the profile."""
        phi = InitialDensity([1, 2, 3, 4, 5], [10.0, 1.0, 1.0, 1.0, 1.0])
        slow = DiffusiveLogisticModel(dl_parameters(0.001, 0.1, 50.0), points_per_unit=15, max_step=0.02)
        fast = DiffusiveLogisticModel(dl_parameters(0.5, 0.1, 50.0), points_per_unit=15, max_step=0.02)
        profile_slow = slow.solve(phi, [5.0]).profile(5.0)
        profile_fast = fast.solve(phi, [5.0]).profile(5.0)
        assert np.var(profile_fast) < np.var(profile_slow)

    def test_decaying_growth_rate_slows_late_growth(self):
        constant = dl_parameters(0.01, 1.65, 25.0)
        decaying = PAPER_S1_HOP_PARAMETERS  # starts at 1.65 and decays to 0.25
        model_c = DiffusiveLogisticModel(constant, points_per_unit=10, max_step=0.05)
        model_d = DiffusiveLogisticModel(decaying, points_per_unit=10, max_step=0.05)
        final_c = model_c.solve(PHI, [10.0]).profile(10.0)
        final_d = model_d.solve(PHI, [10.0]).profile(10.0)
        assert np.all(final_d <= final_c + 1e-9)

    def test_to_surface_clips_negative_values(self):
        model = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=10, max_step=0.05)
        surface = model.solve(PHI, HOURS).to_surface()
        assert np.all(surface.values >= 0.0)

    def test_grid_refinement_convergence(self):
        """Doubling the spatial resolution changes the hour-6 profile only slightly."""
        coarse = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=8, max_step=0.02)
        fine = DiffusiveLogisticModel(PAPER_S1_HOP_PARAMETERS, points_per_unit=32, max_step=0.02)
        profile_coarse = coarse.solve(PHI, [6.0]).profile(6.0)
        profile_fine = fine.solve(PHI, [6.0]).profile(6.0)
        assert np.allclose(profile_coarse, profile_fine, rtol=5e-3)


@settings(max_examples=15, deadline=None)
@given(
    densities=st.lists(st.floats(0.5, 20.0), min_size=3, max_size=6),
    diffusion=st.floats(0.001, 0.2),
    rate=st.floats(0.1, 2.0),
)
def test_bounds_and_monotonicity_hold_for_random_inputs(densities, diffusion, rate):
    """Property-based check of Section II-C on random initial snapshots.

    The bounds of the unique property (0 <= I <= K) must hold for *any*
    admissible phi; the strictly-increasing property is only guaranteed when
    phi is a lower time-independent solution (Equation 5), so that assertion
    is conditioned on the check the paper itself states.
    """
    capacity = 25.0
    parameters = dl_parameters(diffusion, rate, capacity)
    phi = InitialDensity(np.arange(1.0, len(densities) + 1.0), densities)
    model = DiffusiveLogisticModel(parameters, points_per_unit=8, max_step=0.1)
    solution = model.solve(phi, [1.0, 3.0, 6.0])
    assert check_solution_bounds(solution, tolerance=1e-3)
    if phi.lower_solution_report(parameters, tolerance=1e-9).satisfied:
        assert check_strictly_increasing(solution, tolerance=1e-6)
