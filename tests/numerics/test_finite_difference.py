"""Tests for the Neumann-boundary finite-difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numerics.finite_difference import (
    laplacian_matrix,
    laplacian_tridiagonal,
    second_derivative,
)
from repro.numerics.grid import UniformGrid


class TestLaplacianMatrix:
    def test_shape_and_symmetric_stencil(self):
        matrix = laplacian_matrix(5, 1.0)
        assert matrix.shape == (5, 5)
        assert matrix[2, 1] == 1.0
        assert matrix[2, 2] == -2.0
        assert matrix[2, 3] == 1.0

    def test_neumann_rows(self):
        matrix = laplacian_matrix(4, 0.5)
        inv_h2 = 4.0
        assert matrix[0, 0] == pytest.approx(-2.0 * inv_h2)
        assert matrix[0, 1] == pytest.approx(2.0 * inv_h2)
        assert matrix[-1, -1] == pytest.approx(-2.0 * inv_h2)
        assert matrix[-1, -2] == pytest.approx(2.0 * inv_h2)

    def test_constant_vector_in_null_space(self):
        matrix = laplacian_matrix(12, 0.3)
        constant = np.full(12, 3.7)
        assert np.allclose(matrix @ constant, 0.0, atol=1e-10)

    def test_row_sums_are_zero(self):
        matrix = laplacian_matrix(9, 0.25)
        assert np.allclose(matrix.sum(axis=1), 0.0, atol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laplacian_matrix(1, 0.1)
        with pytest.raises(ValueError):
            laplacian_matrix(5, 0.0)
        with pytest.raises(ValueError):
            laplacian_matrix(5, -1.0)


class TestLaplacianTridiagonal:
    @pytest.mark.parametrize("num_points", [2, 3, 7, 24])
    def test_bands_match_dense_matrix(self, num_points):
        sub, diag, sup = laplacian_tridiagonal(num_points, 0.4)
        dense = laplacian_matrix(num_points, 0.4)
        rebuilt = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        assert np.array_equal(rebuilt, dense)

    def test_boundary_entries_doubled(self):
        sub, diag, sup = laplacian_tridiagonal(6, 0.5)
        inv_h2 = 4.0
        assert sup[0] == pytest.approx(2.0 * inv_h2)
        assert sub[-1] == pytest.approx(2.0 * inv_h2)
        assert np.all(diag == pytest.approx(-2.0 * inv_h2))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laplacian_tridiagonal(1, 0.1)
        with pytest.raises(ValueError):
            laplacian_tridiagonal(5, 0.0)


class TestSecondDerivative:
    def test_matches_matrix_application(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=17)
        spacing = 0.37
        matrix = laplacian_matrix(17, spacing)
        assert np.allclose(second_derivative(values, spacing), matrix @ values)

    def test_quadratic_interior_exact(self):
        # u = x^2 has u'' = 2 everywhere; the centred stencil is exact on the
        # interior nodes for quadratics.
        grid = UniformGrid(0.0, 2.0, 21)
        values = grid.nodes**2
        result = second_derivative(values, grid.spacing)
        assert np.allclose(result[1:-1], 2.0, atol=1e-9)

    def test_cosine_mode_convergence(self):
        # u = cos(pi x) satisfies the Neumann conditions on [0, 1]; the
        # discrete Laplacian should converge to -pi^2 cos(pi x) at second order.
        errors = []
        for num_points in (21, 41, 81):
            grid = UniformGrid(0.0, 1.0, num_points)
            values = np.cos(np.pi * grid.nodes)
            exact = -np.pi**2 * np.cos(np.pi * grid.nodes)
            approx = second_derivative(values, grid.spacing)
            errors.append(np.max(np.abs(approx - exact)))
        # Halving h should reduce the error by about a factor of four.
        assert errors[1] < errors[0] / 3.0
        assert errors[2] < errors[1] / 3.0

    def test_column_block_matches_per_column_application(self):
        # The batched Crank-Nicolson engine applies the operator to a whole
        # (n, batch) state matrix at once.
        rng = np.random.default_rng(3)
        block = rng.normal(size=(17, 5))
        spacing = 0.37
        result = second_derivative(block, spacing)
        assert result.shape == block.shape
        for j in range(block.shape[1]):
            assert np.allclose(result[:, j], second_derivative(block[:, j], spacing))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            second_derivative(np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            second_derivative(np.array([[1.0, 2.0]]), 0.1)
        with pytest.raises(ValueError):
            second_derivative(np.array([1.0, 2.0]), -0.5)
        with pytest.raises(ValueError):
            second_derivative(np.ones((2, 2, 2)), 0.1)


@settings(max_examples=40, deadline=None)
@given(
    num_points=st.integers(3, 40),
    spacing=st.floats(0.01, 2.0),
    offset=st.floats(-50, 50),
)
def test_constant_shift_invariance(num_points, spacing, offset):
    """The Laplacian of u + c equals the Laplacian of u (discrete version)."""
    rng = np.random.default_rng(42)
    values = rng.normal(size=num_points)
    base = second_derivative(values, spacing)
    shifted = second_derivative(values + offset, spacing)
    assert np.allclose(base, shifted, atol=1e-6 / spacing**2 + 1e-8)


@settings(max_examples=40, deadline=None)
@given(num_points=st.integers(3, 30), spacing=st.floats(0.05, 1.0))
def test_discrete_integral_is_conserved(num_points, spacing):
    """No-flux boundaries conserve the discrete mean under the half-weighted
    trapezoid quadrature (endpoints carry half weight)."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=num_points)
    flux = second_derivative(values, spacing)
    weights = np.ones(num_points)
    weights[0] = weights[-1] = 0.5
    assert np.dot(weights, flux) == pytest.approx(0.0, abs=1e-7 / spacing**2)
