"""Graph-seeded IC / LT adapters: deriving density surfaces from cascades.

The Independent Cascade and Linear Threshold models
(:mod:`repro.baselines.independent_cascade`,
:mod:`repro.baselines.linear_threshold`) operate on the follower graph, not
on density surfaces, so they cannot implement the protocol's
surface-in/surface-out shape directly.  :class:`GraphSeededModel` bridges
them: bound to a graph and a seed user, it runs the cascade process once,
converts the activation rounds into a per-distance-group density surface
(round index standing in for elapsed hours, cumulative activated fraction
of each hop-distance group as the density), and serves that surface
through the standard ``predict`` / ``evaluate`` protocol.

Because the adapters need a graph, they are not registered by default;
:func:`register_graph_models` registers ``ic`` and ``lt`` bound to a given
graph and seed, after which they are selectable everywhere a model name
goes (``--model``, manifests, ``repro compare``, the service).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.independent_cascade import independent_cascade
from repro.baselines.linear_threshold import linear_threshold
from repro.cascade.density import DensitySurface
from repro.core.config import ModelSpec
from repro.models.base import (
    FittedModel,
    ModelParameters,
    PredictionModel,
    coerce_spec,
)
from repro.models.registry import MODELS
from repro.network.distance import friendship_hop_distances
from repro.network.graph import SocialGraph

_PROCESSES = ("ic", "lt")


class GraphSeededFittedModel(FittedModel):
    """A simulated cascade sampled as a per-distance density surface."""

    def __init__(
        self,
        model_name: str,
        parameters: ModelParameters,
        distances: np.ndarray,
        initial_time: float,
        round_densities: np.ndarray,
        rounds_per_hour: float,
        unit: str,
    ) -> None:
        self.model_name = model_name
        self._parameters = parameters
        self._distances = distances
        self._initial_time = initial_time
        #: ``(rounds + 1, distances)`` cumulative densities; row 0 is round 0.
        self._round_densities = round_densities
        self._rounds_per_hour = rounds_per_hour
        self._unit = unit

    @property
    def parameters(self) -> ModelParameters:
        return self._parameters

    @property
    def calibration_details(self) -> dict:
        return {
            "calibrated": False,
            "rounds": int(self._round_densities.shape[0] - 1),
        }

    def predict(
        self,
        times: Sequence[float],
        distances: "Sequence[float] | None" = None,
    ) -> DensitySurface:
        times = sorted(float(t) for t in times)
        max_round = self._round_densities.shape[0] - 1
        rounds = np.clip(
            np.floor(
                (np.asarray(times) - self._initial_time) * self._rounds_per_hour
                + 1e-9
            ).astype(int),
            0,
            max_round,
        )
        values = self._round_densities[rounds]
        surface = DensitySurface(
            distances=self._distances.copy(),
            times=np.asarray(times),
            values=values,
            group_sizes=np.ones(self._distances.size),
            unit=self._unit,
            metadata={"source": f"{self.model_name}_graph_seeded"},
        )
        if distances is not None:
            surface = surface.restrict_distances(np.asarray(distances, dtype=float))
        return surface


class GraphSeededModel(PredictionModel):
    """Adapt a graph-level cascade process (IC or LT) to the model protocol.

    Parameters
    ----------
    process:
        ``"ic"`` (Independent Cascade) or ``"lt"`` (Linear Threshold).
    graph:
        The follower graph the process runs on.
    seed_user:
        The initially active user (the story's initiator).
    activation_probability:
        IC edge activation probability (ignored by LT).
    rounds_per_hour:
        How many process rounds correspond to one observed hour; the
        activation rounds are mapped onto the time axis with this rate.
    rng_seed:
        Seed of the process' random generator -- fixed so ``fit`` is
        deterministic and service results match the direct path bit for bit.
    name:
        Registry name; defaults to the process name.
    """

    _PARAMS = ("activation_probability", "rounds_per_hour", "rng_seed")

    def __init__(
        self,
        process: str,
        graph: SocialGraph,
        seed_user: int,
        activation_probability: float = 0.1,
        rounds_per_hour: float = 1.0,
        rng_seed: int = 0,
        name: "str | None" = None,
    ) -> None:
        if process not in _PROCESSES:
            raise ValueError(
                f"unknown process {process!r}; expected one of {_PROCESSES}"
            )
        if rounds_per_hour <= 0:
            raise ValueError(f"rounds_per_hour must be > 0, got {rounds_per_hour}")
        self._process = process
        self._graph = graph
        self._seed_user = int(seed_user)
        self._activation_probability = float(activation_probability)
        self._rounds_per_hour = float(rounds_per_hour)
        self._rng_seed = int(rng_seed)
        self.name = name if name is not None else process
        self.description = (
            f"graph-seeded {'Independent Cascade' if process == 'ic' else 'Linear Threshold'} "
            f"model (Kempe et al.), activation rounds mapped to a density surface"
        )

    def fit(
        self,
        observed: DensitySurface,
        spec: "ModelSpec | None" = None,
        training_times: "Sequence[float] | None" = None,
    ) -> GraphSeededFittedModel:
        spec = coerce_spec(spec, self.name, self._PARAMS)
        probability = float(
            spec.params.get("activation_probability", self._activation_probability)
        )
        rounds_per_hour = float(
            spec.params.get("rounds_per_hour", self._rounds_per_hour)
        )
        rng_seed = int(spec.params.get("rng_seed", self._rng_seed))
        if training_times is not None and len(list(training_times)) > 0:
            initial_time = sorted(float(t) for t in training_times)[0]
        else:
            if observed.times.size == 0:
                raise ValueError("the observed surface has no times")
            initial_time = float(observed.times[0])

        hops = friendship_hop_distances(self._graph, self._seed_user)
        rng = np.random.default_rng(rng_seed)
        if self._process == "ic":
            activation = independent_cascade(
                self._graph, {self._seed_user}, probability, rng
            )
        else:
            activation = linear_threshold(self._graph, {self._seed_user}, rng=rng)

        distances = observed.distances.astype(float)
        max_round = max(activation.values(), default=0)
        counts = np.zeros((max_round + 1, distances.size))
        group_sizes = np.zeros(distances.size)
        for j, distance in enumerate(distances):
            group = [user for user, hop in hops.items() if hop == int(round(distance))]
            group_sizes[j] = len(group)
            for user in group:
                activated_round = activation.get(user)
                if activated_round is not None:
                    counts[min(activated_round, max_round):, j] += 1
        scale = 100.0 if observed.unit == "percent" else 1.0
        densities = counts / np.maximum(group_sizes, 1.0) * scale
        parameters = ModelParameters(
            self.name,
            process=self._process,
            seed_user=self._seed_user,
            activation_probability=probability,
            rounds_per_hour=rounds_per_hour,
            rng_seed=rng_seed,
            activated_users=len(activation),
        )
        return GraphSeededFittedModel(
            self.name,
            parameters,
            distances,
            initial_time,
            densities,
            rounds_per_hour,
            observed.unit,
        )


def register_graph_models(
    graph: SocialGraph,
    seed_user: int,
    activation_probability: float = 0.1,
    rounds_per_hour: float = 1.0,
    rng_seed: int = 0,
    overwrite: bool = True,
    params: "Mapping[str, object] | None" = None,
) -> tuple[str, str]:
    """Register ``ic`` and ``lt`` models bound to a graph and seed user.

    Returns the two registered names.  ``overwrite=True`` (the default)
    replaces previous bindings, since re-binding to a new graph is the
    common workflow.
    """
    del params  # reserved for future per-process options

    def make(process: str):
        def factory() -> GraphSeededModel:
            return GraphSeededModel(
                process,
                graph,
                seed_user,
                activation_probability=activation_probability,
                rounds_per_hour=rounds_per_hour,
                rng_seed=rng_seed,
            )

        return factory

    for process in _PROCESSES:
        MODELS.register(process, make(process), overwrite=overwrite)
    return _PROCESSES
