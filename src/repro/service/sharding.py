"""Corpus sharding: group stories that can share one batched solve.

The batched solver engine advances every story of a shard as the columns of
one state matrix, so all members must share the *spatial signature* of the
solve: the distance interval, the initial (calibration-anchor) time, the
grid resolution and time step, and the solver backend -- the values that
key the operator cache in :mod:`repro.numerics.operator_cache`.  Stories
with different training or evaluation windows also cannot ride in the same
batch, so those windows are part of the key as well.

:class:`CorpusSharder` computes that signature per story and groups a corpus
into :class:`Shard` objects, optionally splitting oversized groups so one
pathological signature cannot monopolise a worker of the
:class:`~repro.service.service.PredictionService`.  Each shard amortizes one
cached operator factorization per (dt, diffusion rate) across all of its
stories.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cascade.density import DensitySurface
from repro.core.config import SolverConfig


@dataclass(frozen=True)
class ShardKey:
    """Hashable spatial signature of one batched solve.

    Attributes
    ----------
    lower, upper:
        Distance interval ``[l, L]`` of the stories' surfaces.
    initial_time:
        The phi anchor time (first training hour).
    points_per_unit, max_step:
        Grid resolution and internal time step of the solve -- together with
        the interval these determine the cached operator's ``(n, dx, dt)``.
    backend:
        Solver backend name.
    training_times:
        The shared training window, or ``None`` when every story defaults to
        its own first observed hours.
    evaluation_times:
        The shared evaluation window, or ``None`` for the per-story default
        (hours 2..6 relative to the first observed hour).
    model:
        Registry name of the prediction model scoring the shard.  Part of
        the signature so shards never mix models: stories scored by
        different models cannot share a batched solve (or even a meaningful
        joint fit), no matter how alike their spatial setups are.
    """

    lower: float
    upper: float
    initial_time: float
    points_per_unit: int
    max_step: float
    backend: str
    training_times: "tuple[float, ...] | None" = None
    evaluation_times: "tuple[float, ...] | None" = None
    model: str = "dl"

    def signature(self) -> str:
        """Compact deterministic label for trace attributes and logs.

        Deliberately not ``hash()``-based (string hashing is randomized per
        process), so the same shard labels identically across daemon
        restarts and process workers.
        """
        return (
            f"{self.model}@[{self.lower:g},{self.upper:g}]"
            f":ppu{self.points_per_unit}:{self.backend}"
        )


@dataclass
class Shard:
    """One group of stories advanced together in a single batched solve."""

    key: ShardKey
    surfaces: "dict[str, DensitySurface]" = field(default_factory=dict)

    @property
    def story_names(self) -> tuple[str, ...]:
        """Names of the shard's stories, in insertion order."""
        return tuple(self.surfaces)

    def __len__(self) -> int:
        return len(self.surfaces)


class ShardAutotuner:
    """Size shards from an EWMA of observed per-story solve times.

    A fixed shard size is wrong in both directions: when stories are cheap
    (parameters supplied, operators cached) large shards amortize best, but
    when each story pays a cold calibration a large shard turns into one
    multi-second batch that starves the queue and inflates per-story latency.
    The autotuner closes that loop: after every shard solve the service calls
    :meth:`observe` with the story count and wall time, an exponentially
    weighted moving average tracks the per-story cost, and
    :meth:`recommended_size` returns the largest shard that stays within the
    target per-shard latency budget.

    Parameters
    ----------
    target_shard_seconds:
        Latency budget one shard solve should stay under; the recommended
        size is ``target / ewma_story_seconds`` clamped to the bounds.
    alpha:
        EWMA smoothing factor in (0, 1]; higher reacts faster, lower
        smooths noisy timings harder.
    min_size, max_size:
        Clamp bounds of the recommendation.  ``min_size`` keeps the pipeline
        moving even when stories look arbitrarily expensive; ``max_size``
        caps batch memory no matter how cheap they look.
    initial_story_seconds:
        Prior for the per-story cost before the first observation, so the
        very first recommendation is already sensible.

    Thread-safety: ``observe`` runs on the event-loop thread after each
    shard completes, but a lock is taken anyway so external monitoring
    threads may read ``ewma_story_seconds`` / call ``recommended_size``
    concurrently.
    """

    def __init__(
        self,
        target_shard_seconds: float = 0.5,
        alpha: float = 0.3,
        min_size: int = 1,
        max_size: int = 64,
        initial_story_seconds: float = 0.05,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if target_shard_seconds <= 0:
            raise ValueError(
                f"target_shard_seconds must be > 0, got {target_shard_seconds}"
            )
        if min_size < 1 or max_size < min_size:
            raise ValueError(
                f"need 1 <= min_size <= max_size, got [{min_size}, {max_size}]"
            )
        if initial_story_seconds <= 0:
            raise ValueError(
                f"initial_story_seconds must be > 0, got {initial_story_seconds}"
            )
        self._target = float(target_shard_seconds)
        self._alpha = float(alpha)
        self._min_size = int(min_size)
        self._max_size = int(max_size)
        self._ewma = float(initial_story_seconds)
        self._observations = 0
        self._lock = threading.Lock()

    @property
    def ewma_story_seconds(self) -> float:
        """Current smoothed estimate of one story's solve time."""
        with self._lock:
            return self._ewma

    @property
    def observations(self) -> int:
        """How many shard solves have been observed."""
        with self._lock:
            return self._observations

    def observe(self, stories: int, seconds: float) -> None:
        """Fold one shard solve (``stories`` stories in ``seconds``) into the EWMA."""
        if stories < 1:
            raise ValueError(f"stories must be >= 1, got {stories}")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        per_story = seconds / stories
        with self._lock:
            self._ewma += self._alpha * (per_story - self._ewma)
            self._observations += 1

    def recommended_size(self) -> int:
        """Largest shard expected to finish within the latency target."""
        with self._lock:
            # Floor the divisor: observe() accepts seconds == 0 (clock
            # granularity on very fast solves), and with alpha == 1 the EWMA
            # can then be exactly 0 -- which must recommend the max, not
            # raise ZeroDivisionError inside the dispatcher.
            size = int(self._target / max(self._ewma, 1e-9))
        return max(self._min_size, min(self._max_size, size))

    def snapshot(self) -> dict:
        """Plain-dict state for the daemon's ``stats`` command."""
        with self._lock:
            ewma, observations = self._ewma, self._observations
        return {
            "target_shard_seconds": self._target,
            "alpha": self._alpha,
            "min_size": self._min_size,
            "max_size": self._max_size,
            "ewma_story_seconds": ewma,
            "observations": observations,
            "recommended_size": self.recommended_size(),
        }


class CorpusSharder:
    """Group a corpus of story surfaces by batched-solve compatibility.

    Parameters
    ----------
    solver:
        The :class:`~repro.core.config.SolverConfig` the shards will be
        scored with; baked into every :class:`ShardKey` so shards from
        differently configured sharders never mix.
    model:
        Default registry name of the prediction model; joins every
        :class:`ShardKey` so shards never mix models.  Overridable per
        story via :meth:`key_for` / :meth:`shard`.
    max_shard_size:
        Upper bound on stories per shard.  Groups larger than this are split
        into consecutive chunks (each chunk still shares its factorizations);
        ``None`` keeps every group whole.
    """

    def __init__(
        self,
        max_shard_size: "int | None" = None,
        *,
        model: str = "dl",
        solver: "SolverConfig | None" = None,
    ) -> None:
        if max_shard_size is not None and max_shard_size < 1:
            raise ValueError(f"max_shard_size must be >= 1, got {max_shard_size}")
        if not model:
            raise ValueError("the sharder needs a non-empty default model name")
        self._solver = solver if solver is not None else SolverConfig()
        self._model = model
        self._max_shard_size = max_shard_size

    @property
    def max_shard_size(self) -> "int | None":
        """Largest number of stories one shard may hold (None = unbounded)."""
        return self._max_shard_size

    @property
    def solver_config(self) -> SolverConfig:
        """The solver configuration baked into every shard key."""
        return self._solver

    @property
    def model(self) -> str:
        """The default model name baked into shard keys."""
        return self._model

    def key_for(
        self,
        surface: DensitySurface,
        training_times: "Sequence[float] | None" = None,
        evaluation_times: "Sequence[float] | None" = None,
        model: "str | None" = None,
    ) -> ShardKey:
        """The shard signature of one story surface.

        The initial time mirrors :meth:`repro.core.prediction.BatchPredictor.fit_story`:
        the first training hour when a window is given, else the surface's
        first observed hour.  ``model`` overrides the sharder's default
        model name for this story.
        """
        if training_times is not None:
            window = tuple(sorted(float(t) for t in training_times))
            if not window:
                raise ValueError("training_times must not be empty")
            initial_time = window[0]
        else:
            window = None
            if surface.times.size == 0:
                raise ValueError("the surface has no observed times")
            initial_time = float(surface.times[0])
        evaluation = (
            tuple(sorted(float(t) for t in evaluation_times))
            if evaluation_times is not None
            else None
        )
        return ShardKey(
            lower=float(surface.distances[0]),
            upper=float(surface.distances[-1]),
            initial_time=initial_time,
            points_per_unit=self._solver.points_per_unit,
            max_step=self._solver.max_step,
            backend=self._solver.backend,
            training_times=window,
            evaluation_times=evaluation,
            model=model if model is not None else self._model,
        )

    def shard(
        self,
        surfaces: "Mapping[str, DensitySurface]",
        training_times: "Sequence[float] | None" = None,
        evaluation_times: "Sequence[float] | None" = None,
        models: "Mapping[str, str] | None" = None,
    ) -> "list[Shard]":
        """Split a corpus into shards, preserving story insertion order.

        Stories with the same signature land in the same shard (until
        ``max_shard_size`` forces a new chunk); the concatenation of all
        shards contains every story exactly once.  ``models`` optionally
        assigns per-story model names (missing stories use the sharder's
        default); stories under different models never share a shard.
        """
        shards: "list[Shard]" = []
        open_shard_by_key: "dict[ShardKey, Shard]" = {}
        for name, surface in surfaces.items():
            key = self.key_for(
                surface,
                training_times,
                evaluation_times,
                model=models.get(name) if models is not None else None,
            )
            shard = open_shard_by_key.get(key)
            if shard is None:
                shard = Shard(key=key)
                shards.append(shard)
                open_shard_by_key[key] = shard
            shard.surfaces[name] = surface
            if self._max_shard_size is not None and len(shard) >= self._max_shard_size:
                # The chunk is full: the next story with this key opens a new one.
                del open_shard_by_key[key]
        return shards
