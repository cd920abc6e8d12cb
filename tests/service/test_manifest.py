"""Tests for the serve-batch story-manifest format."""

import json

import numpy as np
import pytest

from repro.service import ManifestError, open_corpus

INLINE_STORY = {
    "name": "cascade-1",
    "distances": [1, 2, 3],
    "times": [1, 2, 3],
    "values": [[5.0, 2.0, 1.0], [6.0, 3.0, 1.5], [7.0, 4.0, 2.0]],
}


class TestParsing:
    def test_string_entries_are_corpus_stories(self):
        manifest = open_corpus({"corpus": {}, "stories": ["s1", "s2"]})
        assert [s.name for s in manifest.stories] == ["s1", "s2"]
        assert all(not s.is_inline for s in manifest.stories)
        assert manifest.needs_corpus

    def test_inline_story_carries_its_surface(self):
        manifest = open_corpus({"stories": [INLINE_STORY]})
        (story,) = manifest.stories
        assert story.is_inline
        assert story.surface.values.shape == (3, 3)
        assert not manifest.needs_corpus

    def test_corpus_story_without_corpus_block_rejected(self):
        with pytest.raises(ManifestError):
            open_corpus({"stories": ["s1"]})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ManifestError):
            open_corpus({"corpus": {}, "stories": ["s1", "s1"]})

    def test_bad_metric_rejected(self):
        with pytest.raises(ManifestError):
            open_corpus({"metric": "euclidean", "stories": []})

    def test_short_hours_rejected(self):
        with pytest.raises(ManifestError):
            open_corpus({"hours": 1, "stories": []})

    def test_inline_shape_mismatch_rejected(self):
        bad = dict(INLINE_STORY, values=[[1.0, 2.0]])
        with pytest.raises(ManifestError):
            open_corpus({"stories": [bad]})

    def test_mixed_corpus_and_inline_entry_rejected(self):
        mixed = dict(INLINE_STORY, story="s1")
        with pytest.raises(ManifestError, match="mixes a corpus reference"):
            open_corpus({"corpus": {}, "stories": [mixed]})

    def test_inline_missing_field_rejected(self):
        bad = {k: v for k, v in INLINE_STORY.items() if k != "values"}
        with pytest.raises(ManifestError):
            open_corpus({"stories": [bad]})

    def test_non_numeric_fields_raise_manifest_error(self):
        with pytest.raises(ManifestError):
            open_corpus({"hours": "six", "stories": []})
        with pytest.raises(ManifestError):
            open_corpus({"stories": [dict(INLINE_STORY, distances=["a", "b", "c"])]})

    def test_unknown_corpus_keys_rejected(self):
        # A typo'd corpus field must not be silently dropped in favour of
        # the defaults.
        with pytest.raises(ManifestError, match=r"unknown corpus field\(s\) \['user'\]"):
            open_corpus({"corpus": {"user": 5000}, "stories": ["s1"]})

    def test_bad_corpus_block_raises_manifest_error(self):
        manifest = open_corpus({"corpus": {"users": "lots"}, "stories": ["s1"]})
        with pytest.raises(ManifestError):
            manifest.resolve()
        too_small = open_corpus({"corpus": {"users": 50}, "stories": ["s1"]})
        with pytest.raises(ManifestError, match="invalid corpus block"):
            too_small.resolve()

    def test_open_corpus_round_trips_json_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"hours": 4, "stories": [INLINE_STORY]}))
        manifest = open_corpus(str(path))
        assert manifest.hours == 4
        assert manifest.source == str(path)

    def test_open_corpus_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            open_corpus(str(path))


class TestResolution:
    def test_inline_stories_resolve_without_a_corpus(self):
        manifest = open_corpus({"stories": [INLINE_STORY]})
        resolved = manifest.resolve()
        assert list(resolved.surfaces) == ["cascade-1"]
        assert resolved.skipped == []

    def test_empty_first_hour_is_skipped(self):
        empty = dict(INLINE_STORY, name="empty", values=[[0.0, 0.0, 0.0]] * 3)
        manifest = open_corpus({"stories": [INLINE_STORY, empty]})
        resolved = manifest.resolve(training_times=[1.0, 2.0, 3.0])
        assert list(resolved.surfaces) == ["cascade-1"]
        assert resolved.skipped == ["empty"]

    def test_missing_training_anchor_raises_manifest_error(self):
        # An inline story whose times start after the first training hour
        # must fail with a clean ManifestError, not a KeyError traceback.
        late = dict(INLINE_STORY, name="late", times=[2, 3, 4])
        manifest = open_corpus({"stories": [late]})
        with pytest.raises(ManifestError, match="training hour"):
            manifest.resolve(training_times=[1.0, 2.0, 3.0])

    def test_missing_later_training_hour_raises_manifest_error(self):
        # The whole window is validated up front, not just the anchor --
        # otherwise an oversized --hours fails deep inside calibration.
        manifest = open_corpus({"stories": [INLINE_STORY]})  # times 1..3
        with pytest.raises(ManifestError, match=r"training hour\(s\) \[4\.0\]"):
            manifest.resolve(training_times=[1.0, 2.0, 3.0, 4.0])

    def test_corpus_stories_resolve_against_the_synthetic_corpus(self):
        manifest = open_corpus(
            {
                "metric": "hops",
                "corpus": {"users": 900, "background_stories": 25, "seed": 1234},
                "stories": ["s1"],
            }
        )
        resolved = manifest.resolve(training_times=[1.0, 2.0])
        assert list(resolved.surfaces) == ["s1"]
        surface = resolved.surfaces["s1"]
        assert float(np.sum(surface.profile(1.0))) > 0

    def test_unknown_corpus_story_raises_manifest_error(self):
        manifest = open_corpus(
            {
                "corpus": {"users": 900, "background_stories": 25, "seed": 1234},
                "stories": ["s5"],
            }
        )
        with pytest.raises(ManifestError, match="unknown corpus story 's5'"):
            manifest.resolve(training_times=[1.0, 2.0])

    def test_corpus_overrides_take_precedence_over_manifest_block(self):
        # Same corpus as the test above, but the manifest block names a
        # different seed that the caller's override must win against.
        manifest = open_corpus(
            {
                "corpus": {"users": 900, "background_stories": 25, "seed": 999},
                "stories": ["s1"],
            }
        )
        overridden = manifest.resolve(
            corpus_overrides={"seed": 1234}, training_times=[1.0, 2.0]
        )
        reference = open_corpus(
            {
                "corpus": {"users": 900, "background_stories": 25, "seed": 1234},
                "stories": ["s1"],
            }
        )
        expected = reference.resolve(training_times=[1.0, 2.0])
        assert np.array_equal(
            overridden.surfaces["s1"].values, expected.surfaces["s1"].values
        )
