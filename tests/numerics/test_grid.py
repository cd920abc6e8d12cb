"""Tests for repro.numerics.grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.numerics.grid import UniformGrid


class TestConstruction:
    def test_basic_properties(self):
        grid = UniformGrid(1.0, 5.0, 9)
        assert grid.spacing == pytest.approx(0.5)
        assert grid.length == pytest.approx(4.0)
        assert len(grid) == 9
        assert grid.nodes[0] == pytest.approx(1.0)
        assert grid.nodes[-1] == pytest.approx(5.0)

    def test_nodes_are_evenly_spaced(self):
        grid = UniformGrid(0.0, 1.0, 11)
        assert np.allclose(np.diff(grid.nodes), grid.spacing)

    def test_nodes_computed_once_and_read_only(self):
        grid = UniformGrid(1.0, 5.0, 33)
        assert grid.nodes is grid.nodes
        np.testing.assert_array_equal(grid.nodes, np.linspace(1.0, 5.0, 33))
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0

    def test_nodes_stay_read_only_across_pickling(self):
        import pickle

        grid = UniformGrid(1.0, 5.0, 9)
        grid.nodes
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid
        assert not copy.nodes.flags.writeable
        np.testing.assert_array_equal(copy.nodes, grid.nodes)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            UniformGrid(0.0, 1.0, 1)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            UniformGrid(5.0, 1.0, 10)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            UniformGrid(2.0, 2.0, 10)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(ValueError):
            UniformGrid(float("nan"), 1.0, 10)
        with pytest.raises(ValueError):
            UniformGrid(0.0, float("inf"), 10)


class TestLookup:
    def test_contains(self):
        grid = UniformGrid(1.0, 5.0, 5)
        assert grid.contains(1.0)
        assert grid.contains(3.7)
        assert grid.contains(5.0)
        assert not grid.contains(0.99)
        assert not grid.contains(5.01)

    def test_index_of_exact_nodes(self):
        grid = UniformGrid(1.0, 5.0, 5)
        for i, node in enumerate(grid.nodes):
            assert grid.index_of(node) == i

    def test_index_of_rounds_to_nearest(self):
        grid = UniformGrid(0.0, 1.0, 11)
        assert grid.index_of(0.32) == 3
        assert grid.index_of(0.38) == 4

    def test_index_of_outside_raises(self):
        grid = UniformGrid(1.0, 5.0, 5)
        with pytest.raises(ValueError):
            grid.index_of(6.0)

    def test_indices_of_vectorised(self):
        grid = UniformGrid(1.0, 5.0, 9)
        indices = grid.indices_of(np.array([1.0, 2.0, 3.0, 5.0]))
        assert list(indices) == [0, 2, 4, 8]

    def test_indices_of_rejects_out_of_range(self):
        grid = UniformGrid(1.0, 5.0, 9)
        with pytest.raises(ValueError):
            grid.indices_of(np.array([0.0, 2.0]))


class TestRefinement:
    def test_refine_doubles_intervals(self):
        grid = UniformGrid(1.0, 5.0, 5)
        fine = grid.refine(2)
        assert fine.num_points == 9
        assert fine.lower == grid.lower
        assert fine.upper == grid.upper
        assert fine.spacing == pytest.approx(grid.spacing / 2)

    def test_refine_factor_one_is_identity(self):
        grid = UniformGrid(1.0, 5.0, 5)
        assert grid.refine(1) == grid

    def test_refine_rejects_zero(self):
        with pytest.raises(ValueError):
            UniformGrid(1.0, 5.0, 5).refine(0)

    def test_coarse_nodes_are_subset_of_refined(self):
        grid = UniformGrid(1.0, 6.0, 6)
        fine = grid.refine(4)
        for node in grid.nodes:
            assert np.any(np.isclose(fine.nodes, node))


class TestFromIntegerDistances:
    def test_spans_min_to_max(self):
        grid = UniformGrid.from_integer_distances([1, 2, 3, 4, 5], points_per_unit=10)
        assert grid.lower == 1.0
        assert grid.upper == 5.0
        assert grid.num_points == 41

    def test_integer_distances_are_grid_nodes(self):
        grid = UniformGrid.from_integer_distances([1, 2, 3, 4, 5], points_per_unit=7)
        for distance in range(1, 6):
            assert np.any(np.isclose(grid.nodes, distance))

    def test_requires_two_distances(self):
        with pytest.raises(ValueError):
            UniformGrid.from_integer_distances([3])

    def test_requires_distinct_distances(self):
        with pytest.raises(ValueError):
            UniformGrid.from_integer_distances([3, 3, 3])


@given(
    lower=st.floats(-100, 100),
    length=st.floats(0.1, 200),
    num_points=st.integers(2, 200),
)
def test_spacing_times_intervals_equals_length(lower, length, num_points):
    grid = UniformGrid(lower, lower + length, num_points)
    assert grid.spacing * (num_points - 1) == pytest.approx(grid.length, rel=1e-9)


@given(num_points=st.integers(2, 100), factor=st.integers(1, 5))
def test_refined_grid_point_count(num_points, factor):
    grid = UniformGrid(0.0, 1.0, num_points)
    assert grid.refine(factor).num_points == (num_points - 1) * factor + 1
