"""open_corpus facade: dispatch and store-backed manifests."""

import json

import numpy as np
import pytest

from repro.corpus import LazySurface, build_store
from repro.service import (
    ManifestError,
    StoryManifest,
    open_corpus,
)
from tests.corpus.test_store import make_surface

TRAINING = [1.0, 2.0, 3.0]


def inline_entry(name, surface):
    return {
        "name": name,
        "distances": surface.distances.tolist(),
        "times": surface.times.tolist(),
        "values": surface.values.tolist(),
    }


@pytest.fixture
def corpus():
    return {f"story-{i}": make_surface(i) for i in range(4)}


@pytest.fixture
def store(tmp_path, corpus):
    return build_store(tmp_path / "store", corpus, metric="hops", hours=6)


class TestDispatch:
    def test_payload(self, corpus):
        manifest = open_corpus(
            {"stories": [inline_entry("a", corpus["story-0"])]}
        )
        assert isinstance(manifest, StoryManifest)
        assert manifest.source == "<memory>"
        assert [s.name for s in manifest.stories] == ["a"]

    def test_manifest_file(self, tmp_path, corpus):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps({"stories": [inline_entry("a", corpus["story-0"])]})
        )
        manifest = open_corpus(path)
        assert manifest.source == str(path)
        assert [s.name for s in manifest.stories] == ["a"]

    def test_store_directory_and_index_path(self, store, corpus):
        for target in (store.root, store.root / "index.json", store):
            manifest = open_corpus(target)
            assert manifest.store == str(store.root)
            assert sorted(s.name for s in manifest.stories) == sorted(corpus)
            assert manifest.metric == "hops"
            assert manifest.hours == 6

    def test_index_saved_under_another_name(self, store, tmp_path):
        renamed = tmp_path / "catalog.json"
        renamed.write_text((store.root / "index.json").read_text())
        manifest = open_corpus(renamed)
        assert sorted(s.name for s in manifest.stories) == sorted(store.story_names)

    def test_directory_without_index_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ManifestError, match="not a corpus store"):
            open_corpus(tmp_path / "empty")

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_corpus(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            open_corpus(bad)


class TestStoreBackedManifests:
    def test_explicit_story_subset_resolves_to_lazy_handles(self, store, corpus):
        manifest = open_corpus(
            {"store": str(store.root), "stories": ["story-1", "story-3"]}
        )
        resolved = manifest.resolve(training_times=TRAINING)
        assert sorted(resolved.surfaces) == ["story-1", "story-3"]
        for name, surface in resolved.surfaces.items():
            assert isinstance(surface, LazySurface)
            np.testing.assert_array_equal(
                surface.load().values, corpus[name].values
            )

    def test_omitted_stories_selects_every_store_story(self, store, corpus):
        resolved = open_corpus({"store": str(store.root)}).resolve()
        assert sorted(resolved.surfaces) == sorted(corpus)

    def test_store_and_corpus_blocks_are_mutually_exclusive(self, store):
        with pytest.raises(ManifestError, match="mutually exclusive"):
            open_corpus(
                {
                    "store": str(store.root),
                    "corpus": {"seed": 1},
                    "stories": ["story-0"],
                }
            )

    def test_dangling_store_reference(self, store):
        manifest = open_corpus({"store": str(store.root), "stories": ["ghost"]})
        with pytest.raises(
            ManifestError, match="'ghost', which is not in the corpus store"
        ):
            manifest.resolve()

    def test_corpus_overrides_rejected_for_store_manifests(self, store):
        manifest = open_corpus({"store": str(store.root), "stories": ["story-0"]})
        with pytest.raises(ManifestError, match="do not apply to a store-backed"):
            manifest.resolve(corpus_overrides={"seed": 42})

    def test_store_recorded_models_flow_into_resolution(self, tmp_path, corpus):
        store = build_store(
            tmp_path / "modeled",
            corpus,
            model="dl",
            models={"story-2": "logistic"},
        )
        resolved = open_corpus(store).resolve()
        assert resolved.default_model == "dl"
        assert resolved.models == {"story-2": "logistic"}
        assert resolved.model_for("story-2") == "logistic"
        assert resolved.model_for("story-0") == "dl"

    def test_unopenable_store_path_in_payload(self, tmp_path):
        manifest = open_corpus(
            {"store": str(tmp_path / "missing"), "stories": ["a"]}
        )
        with pytest.raises(ManifestError, match="cannot open the corpus store"):
            manifest.resolve()

    def test_training_window_validated_against_store_axes(self, store):
        manifest = open_corpus({"store": str(store.root), "stories": ["story-0"]})
        with pytest.raises(ManifestError, match="no observation at training hour"):
            manifest.resolve(training_times=[1.0, 99.0])


class TestErrorContext:
    def test_inline_errors_carry_source_index_and_name(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "stories": [
                        {"name": "fine", "distances": [1], "times": [1], "values": [[1.0]]},
                        {"name": "bad", "distances": [1, 2], "times": [1], "values": [[1.0]]},
                    ]
                }
            )
        )
        with pytest.raises(ManifestError) as excinfo:
            open_corpus(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "story #1" in message
        assert "'bad'" in message
        assert "'values'" in message

    def test_inline_group_sizes_and_unit_fields(self, corpus):
        entry = inline_entry("a", corpus["story-0"])
        entry["group_sizes"] = [2.0] * corpus["story-0"].distances.size
        entry["unit"] = "fraction"
        resolved = open_corpus({"stories": [entry]}).resolve()
        surface = resolved.surfaces["a"]
        assert surface.unit == "fraction"
        np.testing.assert_array_equal(
            surface.group_sizes, 2.0 * np.ones(corpus["story-0"].distances.size)
        )
        entry["group_sizes"] = [1.0]  # wrong length
        with pytest.raises(ManifestError, match="'group_sizes' has shape"):
            open_corpus({"stories": [entry]})
        entry["group_sizes"] = [2.0] * corpus["story-0"].distances.size
        entry["unit"] = "furlongs"
        with pytest.raises(ManifestError, match="'unit' must be one of"):
            open_corpus({"stories": [entry]})


class TestServiceEquivalence:
    """Lazy store handles must score bit-identically to inline surfaces."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_store_matches_inline_through_service(self, store, executor):
        from repro.core.config import SolverConfig
        from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
        from repro.service import score_corpus_sync

        solver = SolverConfig(points_per_unit=4, max_step=0.25)
        training = [1.0, 2.0, 3.0]
        inline = open_corpus(store).resolve(training_times=training)
        lazy = open_corpus({"store": str(store.root)}).resolve(
            training_times=training
        )
        kwargs = dict(
            parameters=PAPER_S1_HOP_PARAMETERS,
            solver=solver,
            executor=executor,
            max_workers=2,
        )
        from repro.corpus import materialize_surface

        materialized = {
            name: materialize_surface(surface)
            for name, surface in inline.surfaces.items()
        }
        a = score_corpus_sync(materialized, training, **kwargs)
        b = score_corpus_sync(lazy.surfaces, training, **kwargs)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name].overall_accuracy == b[name].overall_accuracy
            np.testing.assert_array_equal(
                a[name].predicted.values, b[name].predicted.values
            )
