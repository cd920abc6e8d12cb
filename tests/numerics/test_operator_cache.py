"""Tests for the (grid, dt, d) operator cache and its factorization modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.finite_difference import laplacian_matrix
from repro.numerics.operator_cache import (
    OPERATOR_MODES,
    BandedFactorization,
    cache_stats,
    clear_operator_caches,
    crank_nicolson_factor,
    crank_nicolson_operator,
    neumann_laplacian_matrix,
    neumann_laplacian_tridiagonal,
    stacked_crank_nicolson_operator,
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

    @pytest.mark.parametrize("num_points", [2, 3, 17, 64])
    def test_modes_match_dense_solve_on_neumann_boundaries(self, num_points):
        """The Neumann ghost nodes make the boundary rows nonsymmetric; the
        banded path must reproduce the dense solution there too."""
        spacing, dt, diffusion = 0.31, 0.04, 0.07
        rng = np.random.default_rng(num_points)
        rhs = rng.normal(size=(num_points, 3))
        expected = np.linalg.solve(dense_lhs(num_points, spacing, dt, diffusion), rhs)
        operator = crank_nicolson_operator(num_points, spacing, dt, diffusion, "banded")
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
        assert dense.nbytes > num_points**2 * 8  # O(n^2)
        assert banded.nbytes < num_points * 8 * 8  # O(n)
        clear_operator_caches()


class TestStackedOperator:
    RATES = (0.005, 0.05, 0.02)

    def stacked_rhs(self, num_points, members, seed=0):
        """A column-major ``(n, members * G)`` block, group g at columns j * G + g."""
        rng = np.random.default_rng(seed)
        return np.asfortranarray(rng.normal(size=(num_points, members * len(self.RATES))))

    def test_one_call_is_bit_identical_to_per_group_solves(self):
        num_points, spacing, dt, groups = 17, 0.125, 0.05, len(self.RATES)
        rhs = self.stacked_rhs(num_points, members=4)
        expected = rhs.copy()
        for g, rate in enumerate(self.RATES):
            operator = crank_nicolson_operator(num_points, spacing, dt, rate, "banded")
            expected[:, g::groups] = operator.solve(rhs[:, g::groups])
        stacked = stacked_crank_nicolson_operator(num_points, spacing, dt, self.RATES)
        view = rhs.reshape((groups * num_points, -1), order="F")
        solved = stacked.solve(view, overwrite=True)
        # Solved in place, and bit for bit what one solve per group gives.
        assert solved is view
        np.testing.assert_array_equal(rhs.view(np.int64), expected.view(np.int64))

    def test_non_finite_entries_leak_across_blocks(self):
        # Why the engine solves a non-finite right-hand side group by
        # group: the zero couplings turn an inf into NaN in other blocks.
        num_points, groups = 9, len(self.RATES)
        rhs = self.stacked_rhs(num_points, members=1)
        rhs[-1, 0] = np.inf
        stacked = stacked_crank_nicolson_operator(num_points, 0.25, 0.05, self.RATES)
        with np.errstate(invalid="ignore"):
            solved = stacked.solve(rhs.reshape((groups * num_points, -1), order="F"))
        assert not np.isfinite(solved[num_points:]).all()

    def test_assembled_per_call_from_the_cached_rate_factors(self):
        # Nothing keyed by a column layout is cached: each call assembles
        # its blocks from the per-rate operators, which are cache hits.
        clear_operator_caches()
        first = stacked_crank_nicolson_operator(11, 0.1, 0.05, self.RATES)
        assert stacked_crank_nicolson_operator(11, 0.1, 0.05, self.RATES) is not first
        stats = cache_stats()
        assert "stacked_crank_nicolson_operator" not in stats
        operators = stats["crank_nicolson_operator"]
        assert (operators["misses"], operators["hits"]) == (3, 3)
        rhs = np.random.default_rng(2).random((11 * len(self.RATES), 2))
        again = stacked_crank_nicolson_operator(11, 0.1, 0.05, self.RATES)
        np.testing.assert_array_equal(again.solve(rhs), first.solve(rhs))

    def test_one_rate_shares_the_plain_factorization(self):
        plain = crank_nicolson_operator(11, 0.1, 0.05, 0.02, "banded")
        assert stacked_crank_nicolson_operator(11, 0.1, 0.05, (0.02,)) is plain

    def test_overwrite_writes_a_copied_solution_back(self):
        # A C-ordered block cannot be solved in place; the solution is
        # still written over it.
        operator = crank_nicolson_operator(13, 0.1, 0.05, 0.02, "banded")
        rhs = np.random.default_rng(1).random((13, 3))
        expected = operator.solve(rhs)
        assert operator.solve(rhs, overwrite=True) is rhs
        np.testing.assert_array_equal(rhs, expected)


class TestSymmetricLDLSolve:
    """The LDL^T solve of ``W M`` (first and last row halved) against LAPACK's dense solve."""

    @given(
        num_points=st.integers(min_value=2, max_value=60),
        spacing=st.floats(min_value=0.01, max_value=2.0),
        dt=st.floats(min_value=1e-4, max_value=1.0),
        diffusion=st.floats(min_value=1e-4, max_value=5.0),
        columns=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_solve(self, num_points, spacing, dt, diffusion, columns, seed):
        matrix = dense_lhs(num_points, spacing, dt, diffusion)
        rhs = np.random.default_rng(seed).normal(size=(num_points, columns))
        expected = np.linalg.solve(matrix, rhs)
        scale = np.linalg.cond(matrix) * (np.max(np.abs(expected)) + 1.0)
        bands = (np.diag(matrix, -1), np.diag(matrix), np.diag(matrix, 1))
        solution = BandedFactorization(*bands).solve(rhs)
        assert np.max(np.abs(solution - expected)) < 1e-13 * scale
        # The right-hand side is left as it was (the halving works on a copy).
        np.testing.assert_array_equal(
            rhs, np.random.default_rng(seed).normal(size=(num_points, columns))
        )

    @given(
        num_points=st.integers(min_value=2, max_value=30),
        rates=st.lists(st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]), min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_block_per_column_matches_numpy_solve(self, num_points, rates, seed):
        # The batch layout of the engine: an F-ordered (n, columns) state,
        # flattened, is one right-hand side of the block-diagonal operator.
        spacing, dt = 0.125, 0.05
        rhs = np.asfortranarray(np.random.default_rng(seed).normal(size=(num_points, len(rates))))
        expected = np.column_stack(
            [
                np.linalg.solve(dense_lhs(num_points, spacing, dt, rate), rhs[:, j])
                for j, rate in enumerate(rates)
            ]
        )
        stacked = stacked_crank_nicolson_operator(num_points, spacing, dt, rates)
        stacked.solve(rhs.reshape(-1, order="F"), overwrite=True)
        assert np.max(np.abs(rhs - expected)) < 1e-12 * (np.max(np.abs(expected)) + 1.0)

    def test_rejects_bands_that_halving_does_not_symmetrize(self):
        with pytest.raises(ValueError, match="symmetric"):
            BandedFactorization(np.full(4, 0.3), np.full(5, 2.0), np.full(4, -0.1))

    def test_rejects_halved_bands_that_are_not_positive_definite(self):
        # Neumann-shaped bands halve to the symmetric [[.5, 1, 0], [1, 1, 1],
        # [0, 1, .5]], whose second LDL^T pivot is negative.
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            BandedFactorization(np.array([1.0, 2.0]), np.ones(3), np.array([2.0, 1.0]))
