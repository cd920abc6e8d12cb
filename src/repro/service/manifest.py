"""Story manifests and the :func:`open_corpus` entry point.

A manifest is a JSON document naming the stories a service run should score.
Stories come from three sources, freely mixed where it makes sense:

* **corpus stories** reference a representative story of the synthetic
  Digg-like corpus (built once per manifest from the ``corpus`` block);
* **inline stories** carry their observed density surface directly, so a
  manifest can describe thousands of cascades without any simulation;
* **store stories** reference a columnar corpus store
  (:mod:`repro.corpus`) by name via the ``store`` block; they resolve to
  *lazy* handles whose values stay on disk until their shard is solved.

Example::

    {
      "metric": "hops",
      "hours": 6,
      "model": "dl",
      "corpus": {"users": 2000, "background_stories": 40, "seed": 2009},
      "stories": [
        "s1",
        {"story": "s2", "model": "logistic"},
        {"name": "cascade-17",
         "distances": [1, 2, 3, 4, 5],
         "times": [1, 2, 3, 4, 5, 6],
         "values": [[5.0, 2.0, 2.5, 1.5, 1.0], ...]}
      ]
    }

``metric`` (``hops`` | ``interests``) and ``hours`` (training window length,
>= 2) apply to the whole manifest; both are optional with the CLI defaults.
``model`` selects the prediction model by :mod:`repro.models` registry name
-- manifest-level as the default for every story, per story as an override
-- so one manifest can mix models (the sharder keeps them in separate
shards).  The ``corpus`` block mirrors the corpus flags of the other
subcommands (``users``, ``background_stories``, ``seed``, ``horizon``) and
is only required when at least one corpus story is listed.

A store-backed manifest replaces ``corpus`` with ``store`` (the two are
mutually exclusive -- a name reference must resolve unambiguously)::

    {"store": "path/to/store", "stories": ["story-000001", "story-000002"]}

Omitting ``"stories"`` selects every story in the store.  Inline stories
may also carry optional ``group_sizes`` and ``unit`` fields (defaults:
all-ones groups, percent), which is what lets ``repro corpus export``
round-trip any store bit-identically through the inline format.

:func:`open_corpus` is the one entry point: it accepts a decoded payload,
a manifest JSON path, a store directory or a store ``index.json`` path, and
returns a :class:`StoryManifest` whose :meth:`~StoryManifest.resolve`
materialises the surfaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.cascade.density import DENSITY_UNITS, DensitySurface, first_match_indices
from repro.core.errors import UnknownNameError
from repro.corpus.store import CorpusStore, CorpusStoreError, LazySurface
from repro.models.registry import MODELS

VALID_METRICS = ("hops", "interests")

#: Corpus-builder fields used when neither the manifest's ``corpus`` block
#: nor the caller's overrides set them -- the same defaults as the CLI's
#: corpus flags, so a manifest scores identically from the library and from
#: ``repro serve-batch``.  Also the set of keys a ``corpus`` block may use.
CORPUS_FIELD_DEFAULTS = {
    "users": 2000,
    "background_stories": 40,
    "horizon": 50.0,
    "seed": 2009,
}


@dataclass(frozen=True)
class ManifestStory:
    """One story entry: a corpus/store reference or an inline surface.

    ``model`` is the story's explicit model override (``None`` falls back
    to the manifest-level default, then to the consumer's default).
    """

    name: str
    corpus_story: "str | None" = None
    surface: "DensitySurface | None" = None
    model: "str | None" = None

    @property
    def is_inline(self) -> bool:
        return self.surface is not None


class ManifestError(ValueError):
    """Raised when a manifest does not parse, validate or resolve."""


@dataclass
class ResolvedManifest:
    """Manifest stories resolved into observed density surfaces.

    ``surfaces`` maps story name to a concrete
    :class:`~repro.cascade.density.DensitySurface` (inline and synthetic
    corpus stories) or a lazy :class:`~repro.corpus.store.LazySurface`
    (store-backed stories) -- both satisfy the sharder's and the service's
    surface contract, and lazy handles are only materialised inside shard
    solves.

    ``skipped`` names stories whose first observed hour is empty (no
    influenced users at any distance), which cannot anchor phi and are
    excluded up front -- mirroring ``repro predict-batch``.

    ``models`` records each story's *explicit* model override (story-level
    ``"model"`` or a store-recorded model, skipped stories included);
    stories without one are absent.  Use :meth:`model_for` for the
    effective name including the manifest-level default and a caller-side
    override.
    """

    surfaces: "dict[str, DensitySurface | LazySurface]" = field(default_factory=dict)
    skipped: "list[str]" = field(default_factory=list)
    models: "dict[str, str]" = field(default_factory=dict)
    default_model: "str | None" = None

    def model_for(self, name: str, override: "str | None" = None) -> "str | None":
        """Effective model of one story: story-level, then override, then manifest."""
        explicit = self.models.get(name)
        if explicit is not None:
            return explicit
        if override is not None:
            return override
        return self.default_model


@dataclass(frozen=True)
class StoryManifest:
    """A parsed manifest, ready to be resolved into density surfaces."""

    stories: tuple[ManifestStory, ...]
    metric: str = "hops"
    hours: "int | None" = None
    corpus_config: "dict | None" = None
    source: str = "<memory>"
    model: "str | None" = None
    store: "str | None" = None

    @property
    def needs_corpus(self) -> bool:
        """True when a story needs the *synthetic* corpus (not the store)."""
        return self.store is None and any(
            not story.is_inline for story in self.stories
        )

    def resolve(
        self,
        corpus_overrides: "dict | None" = None,
        training_times: "Sequence[float] | None" = None,
        include_empty: bool = False,
    ) -> ResolvedManifest:
        """Materialise every manifest story as an observed density surface.

        ``corpus_overrides`` supplies corpus-builder fields (users, seed,
        ...) that take precedence over the manifest's ``corpus`` block --
        the CLI passes explicitly given corpus flags here, mirroring how
        ``--hours`` overrides the manifest's ``hours``.  Unset fields fall
        back to :data:`CORPUS_FIELD_DEFAULTS`.  ``training_times``
        determines which hour must be non-empty (default: each surface's
        first observed hour) and is validated against every story's
        observation grid up front.  ``include_empty=True`` keeps
        empty-first-hour stories in ``surfaces`` instead of ``skipped``
        (``repro corpus build`` uses it so a store preserves the corpus
        verbatim).

        Store-backed stories resolve to lazy handles; only their axes are
        read here (plus one memory-mapped row for the empty-anchor check),
        never the full values matrix.
        """
        corpus = None
        store = None
        if self.store is not None:
            if corpus_overrides:
                raise ManifestError(
                    f"{self.source}: corpus overrides {sorted(corpus_overrides)} "
                    f"do not apply to a store-backed manifest; rebuild the "
                    f"store instead"
                )
            try:
                store = CorpusStore.open(self.store)
            except (CorpusStoreError, FileNotFoundError, OSError) as error:
                raise ManifestError(
                    f"{self.source}: cannot open the corpus store "
                    f"{self.store!r}: {error}"
                ) from error
        elif self.needs_corpus:
            from repro.cascade.digg import (
                SyntheticDiggConfig,
                build_synthetic_digg_dataset,
            )

            fields = dict(CORPUS_FIELD_DEFAULTS)
            fields.update(self.corpus_config or {})
            fields.update(corpus_overrides or {})
            try:
                config = SyntheticDiggConfig(
                    num_users=_coerce(
                        int, fields["users"], "corpus 'users' must be an integer"
                    ),
                    num_background_stories=_coerce(
                        int,
                        fields["background_stories"],
                        "corpus 'background_stories' must be an integer",
                    ),
                    horizon_hours=_coerce(
                        float, fields["horizon"], "corpus 'horizon' must be a number"
                    ),
                    seed=_coerce(
                        int, fields["seed"], "corpus 'seed' must be an integer"
                    ),
                )
            except ValueError as error:
                # SyntheticDiggConfig's own bounds checks (e.g. >= 100 users)
                # become manifest errors too; _coerce already raises
                # ManifestError, a ValueError subclass, re-raised unchanged.
                if isinstance(error, ManifestError):
                    raise
                raise ManifestError(f"invalid corpus block: {error}") from error
            corpus = build_synthetic_digg_dataset(config)

        resolved = ResolvedManifest(default_model=self.model)
        window = sorted(float(t) for t in training_times) if training_times else None
        anchor = window[0] if window else None
        # Stories sharing an observation grid (every story of a store
        # shard, all synthetic-corpus stories) validate the window once.
        window_cache: "dict[bytes, list[float]]" = {}
        for story in self.stories:
            if story.is_inline:
                surface = story.surface
            elif store is not None:
                try:
                    surface = store.handle(story.corpus_story)
                except CorpusStoreError as error:
                    raise ManifestError(
                        f"{self.source}: story {story.name!r} references "
                        f"{story.corpus_story!r}, which is not in the corpus "
                        f"store at {store.root}: {error}"
                    ) from error
                if story.model is None:
                    stored_model = store.model_for(story.corpus_story)
                    if stored_model is not None and stored_model != self.model:
                        resolved.models[story.name] = stored_model
            else:
                assert corpus is not None
                try:
                    if self.metric == "hops":
                        surface = corpus.hop_density_surface(story.corpus_story)
                    else:
                        surface = corpus.interest_density_surface(story.corpus_story)
                except KeyError as error:
                    raise ManifestError(
                        f"{self.source}: story {story.name!r} references "
                        f"unknown corpus story {story.corpus_story!r}; the "
                        f"corpus has {corpus.story_names}"
                    ) from error
            first_hour = anchor if anchor is not None else float(surface.times[0])
            if window is not None:
                # Validate the whole training window up front: a missing
                # later hour would otherwise surface as a cryptic per-job
                # KeyError from deep inside calibration.
                times_key = surface.times.tobytes()
                missing = window_cache.get(times_key)
                if missing is None:
                    found = first_match_indices(surface.times, window) >= 0
                    missing = [hour for hour, ok in zip(window, found) if not ok]
                    window_cache[times_key] = missing
                if missing:
                    raise ManifestError(
                        f"{self.source}: story {story.name!r} has no "
                        f"observation at training hour(s) {missing}; its "
                        f"times span [{float(surface.times[0]):g}, "
                        f"{float(surface.times[-1]):g}]"
                    )
            if story.model is not None:
                # Recorded for skipped stories too, so consumers can
                # attribute every output line (including "skipped") to its
                # model.
                resolved.models[story.name] = story.model
            if include_empty:
                resolved.surfaces[story.name] = surface
                continue
            # Lazy handles answer the first-hour total straight from the
            # index, so resolving a store-backed manifest never pages in
            # shard data.
            if isinstance(surface, LazySurface):
                anchor_total = surface.profile_sum(first_hour)
            else:
                anchor_total = surface.profile(first_hour).sum()
            if anchor_total <= 0:
                resolved.skipped.append(story.name)
                continue
            resolved.surfaces[story.name] = surface
        return resolved


def _coerce(kind, value, description: str):
    """Coerce a manifest field, mapping bad values to ManifestError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as error:
        raise ManifestError(f"{description}: {error}") from error


def _story_context(source: str, index: int, name: "str | None" = None) -> str:
    """The error prefix every story-level problem carries: where, which, who."""
    base = f"{source}: story #{index}"
    return f"{base} ({name!r})" if name else base


def _inline_surface(entry: dict, name: str, index: int, source: str) -> DensitySurface:
    context = _story_context(source, index, name)
    for required in ("distances", "times", "values"):
        if required not in entry:
            raise ManifestError(
                f"{context}: inline story is missing the {required!r} field"
            )
    distances = _coerce(
        lambda v: np.asarray(v, dtype=float),
        entry["distances"],
        f"{context}: field 'distances' has non-numeric values",
    )
    times = _coerce(
        lambda v: np.asarray(v, dtype=float),
        entry["times"],
        f"{context}: field 'times' has non-numeric values",
    )
    values = _coerce(
        lambda v: np.asarray(v, dtype=float),
        entry["values"],
        f"{context}: field 'values' has non-numeric values",
    )
    if values.shape != (times.size, distances.size):
        raise ManifestError(
            f"{context}: field 'values' has shape {values.shape}; expected "
            f"(times={times.size}, distances={distances.size})"
        )
    if "group_sizes" in entry:
        group_sizes = _coerce(
            lambda v: np.asarray(v, dtype=float),
            entry["group_sizes"],
            f"{context}: field 'group_sizes' has non-numeric values",
        )
        if group_sizes.shape != (distances.size,):
            raise ManifestError(
                f"{context}: field 'group_sizes' has shape {group_sizes.shape}; "
                f"expected ({distances.size},)"
            )
    else:
        group_sizes = np.ones(distances.size)
    unit = str(entry.get("unit", "percent"))
    if unit not in DENSITY_UNITS:
        raise ManifestError(
            f"{context}: field 'unit' must be one of {DENSITY_UNITS}, got {unit!r}"
        )
    try:
        return DensitySurface(
            distances=distances,
            times=times,
            values=values,
            group_sizes=group_sizes,
            unit=unit,
            metadata={"story": name, "source": "manifest_inline"},
        )
    except ValueError as error:
        # DensitySurface's own validation (e.g. negative densities) keeps
        # the story context too.
        raise ManifestError(f"{context}: {error}") from error


def _validate_model(name, description: str) -> str:
    """Check a manifest model name against the live registry."""
    model = str(name)
    try:
        MODELS.get(model)
    except UnknownNameError as error:
        raise ManifestError(f"{description}: {error}") from error
    return model


def _parse_story(entry, index: int, seen: "set[str]", source: str) -> ManifestStory:
    if isinstance(entry, str):
        entry = {"story": entry}
    if not isinstance(entry, dict):
        raise ManifestError(
            f"{_story_context(source, index)} must be a name or an object, "
            f"got {type(entry).__name__}"
        )
    model = None
    if entry.get("model") is not None:
        model = _validate_model(
            entry["model"],
            f"{_story_context(source, index)} has an invalid 'model'",
        )
    if "story" in entry:
        inline_fields = [f for f in ("distances", "times", "values") if f in entry]
        if inline_fields:
            raise ManifestError(
                f"{_story_context(source, index)} mixes a corpus reference "
                f"('story': {entry['story']!r}) with inline surface fields "
                f"{inline_fields}; use one or the other"
            )
        name = str(entry.get("name", entry["story"]))
        story = ManifestStory(name=name, corpus_story=str(entry["story"]), model=model)
    else:
        if "name" not in entry:
            raise ManifestError(
                f"{_story_context(source, index)}: inline story needs a "
                f"'name' field"
            )
        name = str(entry["name"])
        story = ManifestStory(
            name=name, surface=_inline_surface(entry, name, index, source), model=model
        )
    if name in seen:
        raise ManifestError(
            f"{_story_context(source, index, name)}: duplicate story name "
            f"{name!r} in the manifest"
        )
    seen.add(name)
    return story


def _parse_payload(payload: dict, source: str = "<memory>") -> StoryManifest:
    """Validate a decoded manifest document (the parse path behind :func:`open_corpus`)."""
    if not isinstance(payload, dict):
        raise ManifestError(
            f"{source}: the manifest root must be an object, got "
            f"{type(payload).__name__}"
        )
    metric = str(payload.get("metric", "hops"))
    if metric not in VALID_METRICS:
        raise ManifestError(
            f"{source}: unknown metric {metric!r}; expected one of {VALID_METRICS}"
        )
    hours = payload.get("hours")
    if hours is not None:
        hours = _coerce(int, hours, f"{source}: 'hours' must be an integer")
        if hours < 2:
            raise ManifestError(
                f"{source}: 'hours' must be at least 2 (hour 1 builds phi, "
                f"later hours are the calibration targets), got {hours}"
            )
    model = payload.get("model")
    if model is not None:
        model = _validate_model(model, f"{source}: the manifest's 'model' is invalid")
    corpus = payload.get("corpus")
    if corpus is not None:
        if not isinstance(corpus, dict):
            raise ManifestError(
                f"{source}: 'corpus' must be an object of corpus-builder fields"
            )
        unknown = sorted(set(corpus) - set(CORPUS_FIELD_DEFAULTS))
        if unknown:
            raise ManifestError(
                f"{source}: unknown corpus field(s) {unknown}; expected a "
                f"subset of {sorted(CORPUS_FIELD_DEFAULTS)}"
            )
    store = payload.get("store")
    if store is not None:
        if not isinstance(store, str) or not store:
            raise ManifestError(
                f"{source}: 'store' must be the path of a corpus store, got "
                f"{store!r}"
            )
        if corpus is not None:
            raise ManifestError(
                f"{source}: 'store' and 'corpus' are mutually exclusive: a "
                f"name reference must resolve from exactly one source"
            )
    entries = payload.get("stories")
    if entries is None and store is not None:
        # A bare store manifest selects every story in the store.
        try:
            entries = list(CorpusStore.open(store))
        except (CorpusStoreError, FileNotFoundError, OSError) as error:
            raise ManifestError(
                f"{source}: cannot open the corpus store {store!r}: {error}"
            ) from error
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ManifestError(f"{source}: 'stories' must be a list")
    seen: "set[str]" = set()
    stories = tuple(
        _parse_story(entry, i, seen, source) for i, entry in enumerate(entries)
    )
    manifest = StoryManifest(
        stories=stories,
        metric=metric,
        hours=hours,
        corpus_config=corpus,
        source=source,
        model=model,
        store=store,
    )
    if manifest.needs_corpus and corpus is None:
        referenced = [s.name for s in stories if not s.is_inline]
        raise ManifestError(
            f"{source}: stories {referenced} reference the synthetic corpus "
            f"but the manifest has no 'corpus' (or 'store') block"
        )
    return manifest


def _store_manifest(store: CorpusStore) -> StoryManifest:
    """A manifest covering every story of an already-open store."""
    return StoryManifest(
        stories=tuple(
            ManifestStory(name=name, corpus_story=name) for name in store
        ),
        metric=store.metric,
        hours=store.hours,
        corpus_config=None,
        source=str(store.root),
        model=store.model,
        store=str(store.root),
    )


def open_corpus(path_or_payload, source: "str | None" = None) -> StoryManifest:
    """The single entry point from "something naming stories" to a manifest.

    Accepts, and transparently distinguishes:

    * a decoded manifest **payload** (``dict``) -- inline surfaces, corpus
      refs and/or a ``store`` block;
    * a **manifest JSON file** path;
    * a **corpus store**: its directory, its ``index.json`` path, an index
      file saved under another name, or an already-open
      :class:`~repro.corpus.store.CorpusStore` -- yielding a manifest over
      every store story.

    ``source`` overrides the provenance recorded in error messages
    (defaults to the path, or ``<memory>`` for payloads).  Missing paths
    raise ``FileNotFoundError`` (so CLIs keep their "does not exist"
    handling); everything else invalid raises :class:`ManifestError`.
    """
    if isinstance(path_or_payload, dict):
        return _parse_payload(path_or_payload, source or "<memory>")
    if isinstance(path_or_payload, CorpusStore):
        return _store_manifest(path_or_payload)
    path = Path(str(path_or_payload))
    if CorpusStore.locate_index(path) is not None:
        try:
            return _store_manifest(CorpusStore.open(path))
        except CorpusStoreError as error:
            raise ManifestError(str(error)) from error
    if path.is_dir():
        raise ManifestError(
            f"{path} is a directory but not a corpus store (no "
            f"index.json inside)"
        )
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ManifestError(f"{path} is not valid JSON: {error}") from error
    if isinstance(payload, dict) and payload.get("format") == "repro-corpus-store":
        # A store index saved under a non-standard file name.
        try:
            return _store_manifest(CorpusStore.open(path))
        except CorpusStoreError as error:
            raise ManifestError(str(error)) from error
    return _parse_payload(payload, source or str(path))
