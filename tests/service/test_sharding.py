"""Tests for corpus sharding by batched-solve compatibility."""

import numpy as np
import pytest

from repro.cascade.density import DensitySurface
from repro.core.config import SolverConfig
from repro.service import CorpusSharder, ShardKey


def make_surface(distances, times, scale=1.0):
    distances = np.asarray(distances, dtype=float)
    times = np.asarray(times, dtype=float)
    values = scale * np.outer(np.linspace(1.0, 2.0, times.size), np.linspace(5.0, 1.0, distances.size))
    return DensitySurface(distances, times, values, np.ones(distances.size))


class TestShardKey:
    def test_key_includes_spatial_signature_and_solver_config(self):
        sharder = CorpusSharder(
            solver=SolverConfig(points_per_unit=12, max_step=0.05, backend="internal")
        )
        key = sharder.key_for(make_surface([1, 2, 3], [1, 2, 3, 4]))
        assert key == ShardKey(
            lower=1.0,
            upper=3.0,
            initial_time=1.0,
            points_per_unit=12,
            max_step=0.05,
            backend="internal",
        )

    def test_training_window_anchors_initial_time(self):
        sharder = CorpusSharder()
        key = sharder.key_for(make_surface([1, 2, 3], [1, 2, 3, 4]), training_times=[3.0, 2.0, 4.0])
        assert key.initial_time == 2.0
        assert key.training_times == (2.0, 3.0, 4.0)

    def test_empty_training_window_rejected(self):
        with pytest.raises(ValueError):
            CorpusSharder().key_for(make_surface([1, 2], [1, 2]), training_times=[])

    def test_different_solver_config_gives_different_keys(self):
        surface = make_surface([1, 2, 3], [1, 2, 3])
        coarse = CorpusSharder(solver=SolverConfig(points_per_unit=8)).key_for(surface)
        fine = CorpusSharder(solver=SolverConfig(points_per_unit=20)).key_for(surface)
        assert coarse != fine


class TestShardGrouping:
    def test_same_signature_lands_in_one_shard(self):
        surfaces = {
            "a": make_surface([1, 2, 3, 4, 5], [1, 2, 3, 4], scale=1.0),
            "b": make_surface([1, 2, 3, 4, 5], [1, 2, 3, 4], scale=2.0),
            "c": make_surface([1, 2, 3, 4, 5], [1, 2, 3, 4], scale=0.5),
        }
        shards = CorpusSharder().shard(surfaces)
        assert len(shards) == 1
        assert shards[0].story_names == ("a", "b", "c")

    def test_heterogeneous_intervals_split(self):
        surfaces = {
            "wide": make_surface([1, 2, 3, 4, 5], [1, 2, 3]),
            "narrow": make_surface([1, 2, 3], [1, 2, 3]),
            "wide2": make_surface([1, 2, 3, 4, 5], [1, 2, 3]),
        }
        shards = CorpusSharder().shard(surfaces)
        assert [shard.story_names for shard in shards] == [("wide", "wide2"), ("narrow",)]
        assert shards[0].key.upper == 5.0
        assert shards[1].key.upper == 3.0

    def test_max_shard_size_chunks_large_groups(self):
        surfaces = {
            f"s{i}": make_surface([1, 2, 3], [1, 2, 3], scale=1.0 + i) for i in range(7)
        }
        shards = CorpusSharder(max_shard_size=3).shard(surfaces)
        assert [len(shard) for shard in shards] == [3, 3, 1]
        # Every story appears exactly once across all shards.
        names = [name for shard in shards for name in shard.story_names]
        assert names == [f"s{i}" for i in range(7)]

    def test_invalid_max_shard_size_rejected(self):
        with pytest.raises(ValueError):
            CorpusSharder(max_shard_size=0)

    def test_empty_corpus_gives_no_shards(self):
        assert CorpusSharder().shard({}) == []
