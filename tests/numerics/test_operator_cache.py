"""Tests for the (grid, dt, d) operator cache and its factorization modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.finite_difference import laplacian_matrix, laplacian_tridiagonal
from repro.numerics.operator_cache import (
    OPERATOR_MODES,
    BandedFactorization,
    ThomasFactorization,
    cache_stats,
    clear_operator_caches,
    crank_nicolson_factor,
    crank_nicolson_operator,
    neumann_laplacian_matrix,
    neumann_laplacian_tridiagonal,
)


def dense_lhs(num_points, spacing, dt, diffusion_rate):
    """Reference Crank-Nicolson matrix ``I - dt/2 * d * A`` built densely."""
    laplacian = laplacian_matrix(num_points, spacing)
    return np.eye(num_points) - 0.5 * dt * diffusion_rate * laplacian


class TestCacheReuseAndEviction:
    def test_same_key_reuses_the_factorization(self):
        clear_operator_caches()
        first = crank_nicolson_operator(21, 0.1, 0.02, 0.05)
        second = crank_nicolson_operator(21, 0.1, 0.02, 0.05)
        assert first is second
        stats = cache_stats()["crank_nicolson_operator"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    @pytest.mark.parametrize(
        "other_key",
        [
            dict(num_points=22, spacing=0.1, dt=0.02, diffusion_rate=0.05),
            dict(num_points=21, spacing=0.2, dt=0.02, diffusion_rate=0.05),
            dict(num_points=21, spacing=0.1, dt=0.01, diffusion_rate=0.05),
            dict(num_points=21, spacing=0.1, dt=0.02, diffusion_rate=0.01),
        ],
    )
    def test_each_component_of_the_key_matters(self, other_key):
        clear_operator_caches()
        base = crank_nicolson_operator(21, 0.1, 0.02, 0.05)
        other = crank_nicolson_operator(**other_key)
        assert base is not other
        assert cache_stats()["crank_nicolson_operator"]["misses"] == 2

    def test_modes_are_distinct_cache_entries(self):
        clear_operator_caches()
        entries = {mode: crank_nicolson_operator(15, 0.1, 0.02, 0.05, mode) for mode in OPERATOR_MODES}
        assert len({id(entry) for entry in entries.values()}) == len(OPERATOR_MODES)
        for mode, entry in entries.items():
            assert entry.mode == mode

    def test_cache_evicts_beyond_maxsize(self):
        clear_operator_caches()
        maxsize = cache_stats()["crank_nicolson_operator"]["maxsize"]
        first = crank_nicolson_operator(5, 0.1, 0.02, 1.0e-6)
        # Fill the cache past its capacity with distinct diffusion rates.
        for k in range(maxsize):
            crank_nicolson_operator(5, 0.1, 0.02, 0.01 * (k + 1))
        stats = cache_stats()["crank_nicolson_operator"]
        assert stats["currsize"] == maxsize
        # The first entry was evicted, so asking again is a fresh miss.
        misses_before = stats["misses"]
        renewed = crank_nicolson_operator(5, 0.1, 0.02, 1.0e-6)
        assert renewed is not first
        assert cache_stats()["crank_nicolson_operator"]["misses"] == misses_before + 1

    def test_clear_resets_every_cache(self):
        crank_nicolson_operator(9, 0.1, 0.02, 0.05)
        neumann_laplacian_matrix(9, 0.1)
        neumann_laplacian_tridiagonal(9, 0.1)
        crank_nicolson_factor(9, 0.1, 0.02, 0.05)
        clear_operator_caches()
        for stats in cache_stats().values():
            assert stats["currsize"] == 0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            crank_nicolson_operator(9, 0.1, 0.0, 0.05)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            crank_nicolson_operator(9, 0.1, 0.02, 0.05, "cholesky")


class TestBandedEquivalence:
    def test_tridiagonal_bands_match_dense_matrix(self):
        sub, diag, sup = neumann_laplacian_tridiagonal(13, 0.25)
        dense = neumann_laplacian_matrix(13, 0.25)
        rebuilt = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        assert np.array_equal(rebuilt, dense)

    def test_cached_bands_are_read_only(self):
        for band in neumann_laplacian_tridiagonal(13, 0.25):
            with pytest.raises(ValueError):
                band[0] = 1.0

    @pytest.mark.parametrize("mode", ["banded", "thomas"])
    @pytest.mark.parametrize("num_points", [2, 3, 17, 64])
    def test_modes_match_dense_solve_on_neumann_boundaries(self, mode, num_points):
        """The Neumann ghost nodes make the boundary rows nonsymmetric; the
        banded/Thomas paths must reproduce the dense solution there too."""
        spacing, dt, diffusion = 0.31, 0.04, 0.07
        rng = np.random.default_rng(num_points)
        rhs = rng.normal(size=(num_points, 3))
        expected = np.linalg.solve(dense_lhs(num_points, spacing, dt, diffusion), rhs)
        operator = crank_nicolson_operator(num_points, spacing, dt, diffusion, mode)
        assert np.max(np.abs(operator.solve(rhs) - expected)) < 1e-12
        # Single right-hand sides take the same path as column blocks.
        assert np.max(np.abs(operator.solve(rhs[:, 0]) - expected[:, 0])) < 1e-12

    def test_dense_mode_shares_the_legacy_factor_cache(self):
        clear_operator_caches()
        crank_nicolson_operator(11, 0.1, 0.02, 0.05, "dense")
        assert cache_stats()["crank_nicolson_factor"]["misses"] == 1

    def test_banded_factorization_pickles(self):
        import pickle

        operator = crank_nicolson_operator(21, 0.1, 0.02, 0.05, "banded")
        copy = pickle.loads(pickle.dumps(operator))
        rhs = np.random.default_rng(0).random((21, 3))
        np.testing.assert_array_equal(copy.solve(rhs), operator.solve(rhs))

    def test_banded_factor_is_small(self):
        num_points = 2000
        dense = crank_nicolson_operator(num_points, 0.05, 0.02, 0.05, "dense")
        banded = crank_nicolson_operator(num_points, 0.05, 0.02, 0.05, "banded")
        thomas = crank_nicolson_operator(num_points, 0.05, 0.02, 0.05, "thomas")
        assert dense.nbytes > num_points**2 * 8  # O(n^2)
        assert banded.nbytes < num_points * 8 * 8  # O(n)
        assert thomas.nbytes < num_points * 8 * 8
        clear_operator_caches()


class TestThomasFactorization:
    def test_rejects_mismatched_band_lengths(self):
        with pytest.raises(ValueError):
            ThomasFactorization(np.ones(3), np.ones(3), np.ones(2))

    def test_rejects_singular_matrix(self):
        # diag chosen so the first pivot eliminates to zero.
        with pytest.raises(np.linalg.LinAlgError):
            ThomasFactorization(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]))

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_solve_on_diagonally_dominant_systems(self, n, seed):
        """Property test: Thomas output equals np.linalg.solve on random
        strictly diagonally dominant tridiagonal systems (where the
        pivot-free elimination is provably stable)."""
        rng = np.random.default_rng(seed)
        sub = rng.uniform(-1.0, 1.0, n - 1)
        sup = rng.uniform(-1.0, 1.0, n - 1)
        off_row_sums = np.zeros(n)
        off_row_sums[1:] += np.abs(sub)
        off_row_sums[:-1] += np.abs(sup)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        diag = sign * (off_row_sums + rng.uniform(0.5, 2.0, n))
        matrix = np.diag(diag)
        matrix += np.diag(sub, -1) + np.diag(sup, 1)
        rhs = rng.normal(size=n)

        solution = ThomasFactorization(sub, diag, sup).solve(rhs)
        expected = np.linalg.solve(matrix, rhs)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(solution - expected)) < 1e-9 * scale

    def test_banded_factorization_agrees_with_thomas(self):
        rng = np.random.default_rng(7)
        n = 31
        sub = rng.uniform(-0.3, 0.3, n - 1)
        sup = rng.uniform(-0.3, 0.3, n - 1)
        diag = 1.0 + np.abs(sub).sum() + rng.uniform(0.5, 1.0, n)
        rhs = rng.normal(size=(n, 4))
        banded = BandedFactorization(sub, diag, sup).solve(rhs)
        thomas = ThomasFactorization(sub, diag, sup).solve(rhs)
        assert np.max(np.abs(banded - thomas)) < 1e-11
