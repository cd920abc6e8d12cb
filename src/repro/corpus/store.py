"""The columnar corpus store: content-addressed density surfaces on disk.

Story manifests inline every density surface as JSON, which dies well
before the ROADMAP's 10^6-story target -- parse time and resident memory
both scale with the whole corpus.  The store keeps a corpus *columnar*
instead:

* each **shard** is one uncompressed ``.npz`` under ``shards/`` holding the
  stacked surfaces of stories that share a spatial signature (identical
  distance grid, time grid and density unit): ``values`` of shape
  ``(stories, times, distances)``, ``group_sizes`` of shape
  ``(stories, distances)``, plus the shared ``distances`` and ``times``
  axes.  Members are ZIP-stored (never deflated) so they can be
  memory-mapped in place;
* ``index.json`` maps every story name to its shard, row and SHA-256
  content hash, and every shard file to its own file hash -- the
  content-addressed part: ``repro corpus verify`` re-hashes both layers.

Reads are **lazy**: :meth:`CorpusStore.handle` returns a picklable
:class:`LazySurface` that carries only the story's axes and metadata; the
values matrix stays on disk until a shard solve materialises the handle
(``solve_shard_report`` calls :meth:`LazySurface.load`), so scoring a
corpus through the service holds at most one shard's worth of surfaces per
worker rather than the whole corpus.

Writes are **deterministic**: npz members are written with a fixed zip
timestamp and no compression, and the index is sorted JSON, so the same
corpus content always produces byte-identical store files (the workload
generator's seed therefore addresses an exact store).
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.cascade.density import (
    DENSITY_UNITS,
    DensitySurface,
    label_indices,
    materialize_surface,
)

STORE_FORMAT = "repro-corpus-store"
STORE_VERSION = 2
INDEX_FILENAME = "index.json"
SHARD_DIRNAME = "shards"

#: Stories per shard file before the writer cuts a new one.  Bounds both the
#: writer's buffered memory and the bytes a worker materialises per solve.
DEFAULT_SHARD_STORIES = 512

#: The zip local-header timestamp of every member: the DOS epoch, so store
#: bytes depend only on corpus content, never on the build's wall clock
#: (``np.savez`` would stamp the current time and break determinism).
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


class CorpusStoreError(ValueError):
    """Raised when a corpus store cannot be written, opened or validated."""


# ---------------------------------------------------------------------- #
# Deterministic npz writing and zero-copy npz reading
# ---------------------------------------------------------------------- #
def write_deterministic_npz(path: "str | Path", arrays: "Mapping[str, np.ndarray]") -> None:
    """Write ``arrays`` as an uncompressed ``.npz`` with fixed zip metadata.

    Functionally ``np.savez``, minus the two properties that break the
    store's contracts: members are ZIP-stored so :func:`mmap_npz` can map
    them in place, and every local header carries the DOS-epoch timestamp
    so identical arrays always produce identical bytes.
    """
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.ascontiguousarray(array), allow_pickle=False
            )
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            archive.writestr(info, buffer.getvalue())


def mmap_npz(path: "str | Path") -> "dict[str, np.ndarray]":
    """Memory-map every member of an uncompressed ``.npz`` in place.

    ``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
    zip archives and reads members into memory, so the store parses the zip
    layout itself: each member's payload offset is recovered from its local
    file header, the npy header is read there, and the raw data region is
    handed to ``np.memmap`` -- no copy, resident only as the OS pages it in.
    """
    path = str(path)
    arrays: "dict[str, np.ndarray]" = {}
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
    with open(path, "rb") as handle:
        for info in members:
            if info.compress_type != zipfile.ZIP_STORED:
                raise CorpusStoreError(
                    f"{path}: member {info.filename!r} is compressed; store "
                    f"shards must be ZIP-stored to be memory-mappable"
                )
            handle.seek(info.header_offset)
            header = handle.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                raise CorpusStoreError(
                    f"{path}: corrupt local file header for {info.filename!r}"
                )
            name_length = int.from_bytes(header[26:28], "little")
            extra_length = int.from_bytes(header[28:30], "little")
            handle.seek(info.header_offset + 30 + name_length + extra_length)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                raise CorpusStoreError(
                    f"{path}: unsupported npy format version {version} in "
                    f"{info.filename!r}"
                )
            name = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
            arrays[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=handle.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


@lru_cache(maxsize=8)
def _open_shard(path: str) -> "dict[str, np.ndarray]":
    """Small cache of open shard mmaps, keyed by absolute path.

    Bounded: entries are memory maps, so the cache costs address space and
    page-cache residency, not heap -- but the cap keeps descriptor-backed
    mappings from accumulating across many stores in one process.
    """
    return mmap_npz(path)


def clear_shard_cache() -> None:
    """Drop all cached shard mmaps (tests that rewrite shard files in place)."""
    _open_shard.cache_clear()


def surface_content_hash(
    distances: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
    group_sizes: np.ndarray,
    unit: str,
) -> str:
    """SHA-256 over a story's canonical float64 byte encoding."""
    digest = hashlib.sha256()
    for array in (distances, times, values, group_sizes):
        digest.update(np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes())
    digest.update(unit.encode("utf-8"))
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Lazy handles
# ---------------------------------------------------------------------- #
@dataclass
class LazySurface:
    """A picklable handle to one stored story surface, loaded on demand.

    Carries only the story's axes (distances/times, straight from the
    index) plus its shard address, so the sharder's ``key_for`` and the
    manifest resolver's training-window checks work without touching the
    values matrix.  :meth:`load` materialises a concrete
    :class:`~repro.cascade.density.DensitySurface`; :meth:`profile` reads a
    single time row through the shard's memory map, so the resolve-time
    empty-first-hour check stays O(distances) however large the corpus.

    Plain data fields only: handles cross the process-executor boundary
    inside :class:`~repro.service.execution.ShardPayload`, and each worker
    re-opens (and caches) the shard mmap on its side.
    """

    store_root: str
    shard_file: str
    row: int
    name: str
    distances: np.ndarray
    times: np.ndarray
    unit: str = "percent"
    metadata: dict = field(default_factory=dict)
    #: Index-recorded sum of the first observed hour's densities; lets the
    #: resolver's empty-anchor check run off the index alone, never paging
    #: in shard data for corpora whose stories spread over many shards.
    first_hour_sum: "float | None" = None

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=float)
        self.times = np.asarray(self.times, dtype=float)

    def _arrays(self) -> "dict[str, np.ndarray]":
        return _open_shard(str(Path(self.store_root) / self.shard_file))

    def profile(self, time: float) -> np.ndarray:
        """Density over distance at one time -- one mmap row, no full load."""
        index = label_indices(self.times, [time], "time", "surface")[0]
        row = self._arrays()["values"][self.row, index, :]
        return np.array(row, dtype=float)

    def profile_sum(self, time: float) -> float:
        """Total density at one time, off the index when it is the first hour.

        JSON floats round-trip exactly, so the recorded ``first_hour_sum``
        equals ``profile(times[0]).sum()`` bit for bit; other times fall
        back to one mmap row read.
        """
        if self.first_hour_sum is not None and np.isclose(time, self.times[0]):
            return float(self.first_hour_sum)
        return float(self.profile(time).sum())

    def load(self) -> DensitySurface:
        """Materialise the full surface (copies this story's rows off the mmap)."""
        arrays = self._arrays()
        return DensitySurface(
            distances=np.array(self.distances, dtype=float),
            times=np.array(self.times, dtype=float),
            values=np.array(arrays["values"][self.row], dtype=float),
            group_sizes=np.array(arrays["group_sizes"][self.row], dtype=float),
            unit=self.unit,
            metadata=dict(self.metadata),
        )


# ---------------------------------------------------------------------- #
# Writing
# ---------------------------------------------------------------------- #
class CorpusStoreWriter:
    """Incrementally build a corpus store, one story at a time.

    Stories are buffered per spatial signature ``(distances, times, unit)``
    and flushed to a shard file whenever a bucket reaches
    ``max_shard_stories``, so building a million-story store never holds
    more than ``signatures * max_shard_stories`` surfaces in memory.
    Call :meth:`finalize` to flush the tails and write ``index.json``.
    """

    def __init__(
        self,
        root: "str | Path",
        metric: str = "hops",
        hours: "int | None" = None,
        model: "str | None" = None,
        max_shard_stories: int = DEFAULT_SHARD_STORIES,
    ) -> None:
        if max_shard_stories < 1:
            raise CorpusStoreError(
                f"max_shard_stories must be >= 1, got {max_shard_stories}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / SHARD_DIRNAME).mkdir(exist_ok=True)
        self._metric = str(metric)
        self._hours = int(hours) if hours is not None else None
        self._model = str(model) if model is not None else None
        self._max_shard_stories = int(max_shard_stories)
        # signature -> list of (name, values, group_sizes, metadata, model)
        self._buckets: "dict[tuple, list]" = {}
        self._shards: "list[dict]" = []
        self._stories: "dict[str, dict]" = {}
        self._finalized = False

    def add(self, name: str, surface, model: "str | None" = None) -> None:
        """Buffer one story; accepts a surface or a lazy handle."""
        if self._finalized:
            raise CorpusStoreError("the store has been finalized; cannot add stories")
        name = str(name)
        if name in self._stories or any(
            entry[0] == name for bucket in self._buckets.values() for entry in bucket
        ):
            raise CorpusStoreError(
                f"duplicate story name {name!r}: every story in a corpus "
                f"store needs a unique name"
            )
        surface = materialize_surface(surface)
        if surface.unit not in DENSITY_UNITS:
            raise CorpusStoreError(
                f"story {name!r} has unit {surface.unit!r}; expected one of "
                f"{DENSITY_UNITS}"
            )
        signature = (
            tuple(float(d) for d in surface.distances),
            tuple(float(t) for t in surface.times),
            surface.unit,
        )
        metadata = {
            key: value
            for key, value in surface.metadata.items()
            if isinstance(value, (int, float, str, bool, type(None)))
        }
        bucket = self._buckets.setdefault(signature, [])
        bucket.append(
            (
                name,
                np.array(surface.values, dtype=float),
                np.array(surface.group_sizes, dtype=float),
                metadata,
                str(model) if model is not None else None,
            )
        )
        if len(bucket) >= self._max_shard_stories:
            self._flush(signature)

    def _flush(self, signature: tuple) -> None:
        bucket = self._buckets.pop(signature)
        distances = np.asarray(signature[0], dtype=float)
        times = np.asarray(signature[1], dtype=float)
        unit = signature[2]
        shard_index = len(self._shards)
        relative = f"{SHARD_DIRNAME}/shard-{shard_index:05d}.npz"
        path = self.root / relative
        values = np.stack([entry[1] for entry in bucket])
        group_sizes = np.stack([entry[2] for entry in bucket])
        write_deterministic_npz(
            path,
            {
                "distances": distances,
                "times": times,
                "values": values,
                "group_sizes": group_sizes,
            },
        )
        self._shards.append(
            {
                "file": relative,
                "sha256": _file_sha256(path),
                "stories": len(bucket),
                "distances": [float(d) for d in distances],
                "times": [float(t) for t in times],
                "unit": unit,
            }
        )
        for row, (name, story_values, story_groups, metadata, model) in enumerate(bucket):
            entry = {
                "shard": shard_index,
                "row": row,
                "sha256": surface_content_hash(
                    distances, times, story_values, story_groups, unit
                ),
                "nbytes": int(story_values.nbytes + story_groups.nbytes),
                "horizon": float(times[-1]),
                # Cached so consumers can skip empty-first-hour stories from
                # the index alone, without touching the shard at all.
                "first_hour_sum": float(story_values[0, :].sum()),
            }
            if model is not None:
                entry["model"] = model
            if metadata:
                entry["metadata"] = metadata
            self._stories[name] = entry

    def finalize(self) -> "CorpusStore":
        """Flush every pending bucket, write ``index.json``, open the store."""
        if self._finalized:
            raise CorpusStoreError("the store has already been finalized")
        for signature in list(self._buckets):
            self._flush(signature)
        index = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "metric": self._metric,
            "hours": self._hours,
            "model": self._model,
            "shards": self._shards,
            "stories": self._stories,
        }
        with open(self.root / INDEX_FILENAME, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(index, indent=2, sort_keys=True) + "\n")
        self._finalized = True
        return CorpusStore.open(self.root)


def build_store(
    root: "str | Path",
    surfaces: "Mapping[str, object]",
    metric: str = "hops",
    hours: "int | None" = None,
    model: "str | None" = None,
    models: "Mapping[str, str] | None" = None,
    max_shard_stories: int = DEFAULT_SHARD_STORIES,
) -> "CorpusStore":
    """Build a store from a mapping of surfaces in one call.

    ``models`` optionally names a per-story model override recorded in the
    index (``model`` is the store-wide default).
    """
    writer = CorpusStoreWriter(
        root,
        metric=metric,
        hours=hours,
        model=model,
        max_shard_stories=max_shard_stories,
    )
    overrides = dict(models or {})
    for name, surface in surfaces.items():
        writer.add(name, surface, model=overrides.get(name))
    return writer.finalize()


# ---------------------------------------------------------------------- #
# Reading
# ---------------------------------------------------------------------- #
class CorpusStore:
    """Read API over a corpus store directory: lazy handles, hash checks."""

    def __init__(self, root: Path, index: dict) -> None:
        self.root = Path(root)
        if not isinstance(index, dict) or index.get("format") != STORE_FORMAT:
            raise CorpusStoreError(
                f"{self.root}: not a corpus store index (missing "
                f"format={STORE_FORMAT!r})"
            )
        version = index.get("version")
        if version != STORE_VERSION:
            raise CorpusStoreError(
                f"{self.root}: unsupported store version {version!r} "
                f"(this build reads version {STORE_VERSION})"
            )
        self.index = index
        # Per-shard axes parsed once and shared by every handle of the
        # shard -- at corpus scale the per-story list-to-array conversion
        # otherwise dominates resolve time.
        self._shard_axes: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}

    @staticmethod
    def locate_index(path: "str | Path") -> "Path | None":
        """The index file a store path points at, or ``None`` if absent.

        Accepts the store directory or the ``index.json`` file itself --
        the two shapes ``open_corpus`` has to distinguish from a manifest.
        """
        path = Path(path)
        if path.is_dir():
            candidate = path / INDEX_FILENAME
            return candidate if candidate.is_file() else None
        if path.name == INDEX_FILENAME and path.is_file():
            return path
        return None

    @classmethod
    def open(cls, path: "str | Path") -> "CorpusStore":
        """Open a store from its directory or its ``index.json`` path."""
        path = Path(path)
        index_path = cls.locate_index(path)
        if index_path is None:
            if path.is_file():
                # A store index saved under a non-standard file name.
                index_path = path
            else:
                raise CorpusStoreError(
                    f"{path}: no corpus store here (expected a directory "
                    f"containing {INDEX_FILENAME}, or the index file itself)"
                )
        try:
            with open(index_path, encoding="utf-8") as handle:
                index = json.load(handle)
        except json.JSONDecodeError as error:
            raise CorpusStoreError(
                f"{index_path} is not valid JSON: {error}"
            ) from error
        return cls(index_path.parent, index)

    # -- metadata ------------------------------------------------------- #
    @property
    def metric(self) -> str:
        return str(self.index.get("metric", "hops"))

    @property
    def hours(self) -> "int | None":
        hours = self.index.get("hours")
        return int(hours) if hours is not None else None

    @property
    def model(self) -> "str | None":
        model = self.index.get("model")
        return str(model) if model is not None else None

    @property
    def story_names(self) -> "tuple[str, ...]":
        return tuple(self.index.get("stories", {}))

    @property
    def total_surface_nbytes(self) -> int:
        """Bytes of surface data across all stories (from the index alone)."""
        return sum(
            int(entry.get("nbytes", 0))
            for entry in self.index.get("stories", {}).values()
        )

    def __len__(self) -> int:
        return len(self.index.get("stories", {}))

    def __contains__(self, name: str) -> bool:
        return name in self.index.get("stories", {})

    def __iter__(self) -> "Iterator[str]":
        return iter(self.index.get("stories", {}))

    # -- access --------------------------------------------------------- #
    def record(self, name: str) -> dict:
        """The index entry of one story (shard, row, hash, metadata)."""
        try:
            return self.index["stories"][name]
        except KeyError:
            raise CorpusStoreError(
                f"story {name!r} is not in the corpus store at {self.root} "
                f"({len(self)} stories)"
            ) from None

    def model_for(self, name: str) -> "str | None":
        """The story's recorded model override, else the store default."""
        record = self.record(name)
        return record.get("model", self.model)

    def handle(self, name: str) -> LazySurface:
        """A lazy, picklable surface handle (values stay on disk)."""
        record = self.record(name)
        try:
            shard_index = int(record["shard"])
            shard = self.index["shards"][shard_index]
        except (IndexError, KeyError, TypeError, ValueError):
            raise CorpusStoreError(
                f"story {name!r} references shard {record.get('shard')!r}, "
                f"which is not in the index of {self.root}"
            ) from None
        axes = self._shard_axes.get(shard_index)
        if axes is None:
            axes = (
                np.asarray(shard["distances"], dtype=float),
                np.asarray(shard["times"], dtype=float),
            )
            self._shard_axes[shard_index] = axes
        return LazySurface(
            store_root=str(self.root),
            shard_file=str(shard["file"]),
            row=int(record["row"]),
            name=name,
            distances=axes[0],
            times=axes[1],
            unit=str(shard.get("unit", "percent")),
            metadata=dict(record.get("metadata", {})),
            first_hour_sum=(
                float(record["first_hour_sum"])
                if record.get("first_hour_sum") is not None
                else None
            ),
        )

    def handles(self) -> "dict[str, LazySurface]":
        """Lazy handles for every story, in index order."""
        return {name: self.handle(name) for name in self}

    def load(self, name: str) -> DensitySurface:
        """Materialise one story's full surface."""
        return self.handle(name).load()

    # -- integrity ------------------------------------------------------ #
    def verify(self) -> "list[str]":
        """Re-hash both layers; returns human-readable problem lines.

        Checks every shard file's SHA-256 against the index, then reloads
        each shard (bypassing the mmap cache, so in-place corruption is
        seen) and re-hashes every story's content against its index entry.
        An empty list means the store is intact.
        """
        problems: "list[str]" = []
        shards = self.index.get("shards", [])
        shard_arrays: "dict[int, dict | None]" = {}
        for shard_index, shard in enumerate(shards):
            path = self.root / shard["file"]
            if not path.is_file():
                problems.append(f"{shard['file']}: shard file is missing")
                shard_arrays[shard_index] = None
                continue
            digest = _file_sha256(path)
            if digest != shard.get("sha256"):
                problems.append(
                    f"{shard['file']}: file hash mismatch (index "
                    f"{shard.get('sha256', '?')[:12]}..., actual {digest[:12]}...)"
                )
            try:
                shard_arrays[shard_index] = mmap_npz(path)
            except (CorpusStoreError, OSError, ValueError, zipfile.BadZipFile) as error:
                problems.append(f"{shard['file']}: unreadable: {error}")
                shard_arrays[shard_index] = None
        for name, record in self.index.get("stories", {}).items():
            shard_index = record.get("shard")
            if not isinstance(shard_index, int) or not 0 <= shard_index < len(shards):
                problems.append(
                    f"story {name!r}: dangling shard reference {shard_index!r}"
                )
                continue
            arrays = shard_arrays.get(shard_index)
            if arrays is None:
                continue  # the shard-level problem already covers this story
            shard = shards[shard_index]
            row = int(record.get("row", -1))
            if not 0 <= row < arrays["values"].shape[0]:
                problems.append(
                    f"story {name!r}: row {row} is out of range for "
                    f"{shard['file']} ({arrays['values'].shape[0]} rows)"
                )
                continue
            digest = surface_content_hash(
                np.asarray(shard["distances"], dtype=float),
                np.asarray(shard["times"], dtype=float),
                arrays["values"][row],
                arrays["group_sizes"][row],
                str(shard.get("unit", "percent")),
            )
            if digest != record.get("sha256"):
                problems.append(
                    f"story {name!r}: content hash mismatch (index "
                    f"{record.get('sha256', '?')[:12]}..., actual {digest[:12]}...)"
                )
        return problems


def export_inline_manifest(store: CorpusStore) -> dict:
    """The store's corpus as a classic inline manifest payload.

    The inverse of ``repro corpus build``: every story becomes an inline
    entry whose JSON floats round-trip exactly (``repr``-based), so scoring
    the exported manifest is bit-identical to scoring from the store.
    ``group_sizes`` and ``unit`` are written only when they differ from the
    inline-story defaults (all-ones groups, percent).
    """
    payload: dict = {"metric": store.metric, "stories": []}
    if store.hours is not None:
        payload["hours"] = store.hours
    if store.model is not None:
        payload["model"] = store.model
    for name in store:
        surface = store.load(name)
        entry: dict = {
            "name": name,
            "distances": [float(d) for d in surface.distances],
            "times": [float(t) for t in surface.times],
            "values": [[float(v) for v in row] for row in surface.values],
        }
        if not np.all(surface.group_sizes == 1.0):
            entry["group_sizes"] = [float(g) for g in surface.group_sizes]
        if surface.unit != "percent":
            entry["unit"] = surface.unit
        record = store.record(name)
        if record.get("model") is not None:
            entry["model"] = record["model"]
        payload["stories"].append(entry)
    return payload
