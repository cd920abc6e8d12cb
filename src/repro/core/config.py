"""Typed, frozen configuration objects for the prediction stack.

Every layer of the stack (predictors, sharder, service, daemon, CLI) takes
its settings as one of two frozen dataclasses, so adding a knob touches
this module instead of every signature:

* :class:`SolverConfig` -- the spatial/temporal discretisation and the
  solver backend.  Hashable, so it can join shard keys.
* :class:`ModelSpec` -- the full description of one model workload:
  registry name, model-specific parameters and solver config.

DL parameters are calibrated one way only
(:func:`repro.core.calibration.calibrate_dl_model`), so there is no
calibration setting; :class:`CalibrationConfig` is an empty placeholder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

#: SolverConfig() defaults.
DEFAULT_POINTS_PER_UNIT = 20
DEFAULT_MAX_STEP = 0.02
DEFAULT_BACKEND = "internal"


@dataclass(frozen=True)
class SolverConfig:
    """Discretisation and solver selection for every PDE solve.

    Attributes
    ----------
    points_per_unit:
        Spatial grid resolution (points per unit distance).
    max_step:
        Maximum internal time step (hours).
    backend:
        Name of a registered PDE solver backend
        (:data:`repro.numerics.backends.BACKENDS`).  The internal backend
        solves Crank-Nicolson steps on its banded LDL^T operator.
    """

    points_per_unit: int = DEFAULT_POINTS_PER_UNIT
    max_step: float = DEFAULT_MAX_STEP
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.points_per_unit < 1:
            raise ValueError(
                f"points_per_unit must be >= 1, got {self.points_per_unit}"
            )
        if self.max_step <= 0:
            raise ValueError(f"max_step must be > 0, got {self.max_step}")

    def replace(self, **changes: Any) -> "SolverConfig":
        """A copy with the given fields changed (frozen-dataclass update)."""
        return replace(self, **changes)

    def to_json_dict(self) -> dict:
        """Plain JSON-able form (CLI payloads, manifests, stats)."""
        return {
            "points_per_unit": self.points_per_unit,
            "max_step": self.max_step,
            "backend": self.backend,
        }


@dataclass(frozen=True)
class CalibrationConfig:
    """An empty placeholder: DL calibration has no settings.

    There is one calibration protocol, so nothing selects one and no
    constructor accepts this class.  It is kept, field-less, only because
    the serving benchmark reports ``asdict(CalibrationConfig())`` among the
    program defaults; it goes once that report stops naming it.
    """


@dataclass(frozen=True)
class ModelSpec:
    """One model workload: registry name, parameters and solver.

    Attributes
    ----------
    name:
        The model's :mod:`repro.models` registry name (``"dl"``,
        ``"logistic"``, ``"sis"``, ``"linear-influence"``, or anything
        registered at runtime).
    params:
        Model-specific options; the ``dl`` model understands
        ``{"parameters": DLParameters | mapping}``, the baselines accept
        their constructor knobs (e.g. ``{"ridge": 1e-3}``).  Unknown keys
        are rejected by the model adapter, not silently dropped.
    solver:
        The :class:`SolverConfig` for models that run PDE solves; models
        without a spatial solve carry it for shard-signature purposes only.
    """

    name: str = "dl"
    params: Mapping[str, Any] = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a model spec needs a non-empty model name")
        # Freeze the params mapping into a plain dict copy so a caller
        # mutating their dict afterwards cannot change the spec.
        object.__setattr__(self, "params", dict(self.params))

    def replace(self, **changes: Any) -> "ModelSpec":
        return replace(self, **changes)

    def to_json_dict(self) -> dict:
        """JSON-able form; model params are included only when JSON-able."""
        params = {
            key: value
            for key, value in self.params.items()
            if isinstance(value, (int, float, str, bool, type(None)))
        }
        return {
            "name": self.name,
            "params": params,
            "solver": self.solver.to_json_dict(),
        }
