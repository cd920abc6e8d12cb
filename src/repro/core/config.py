"""Typed, frozen configuration objects for the prediction stack.

Every layer of the stack (predictors, sharder, service, daemon, CLI) takes
its solver and calibration settings as one of three frozen dataclasses,
so adding a knob touches this module instead of every signature:

* :class:`SolverConfig` -- the spatial/temporal discretisation and the
  solver backend/operator pair.  Hashable, so it can join shard keys.
* :class:`CalibrationConfig` -- how DL parameters are calibrated from a
  training window (batched grid-then-refine vs sequential).
* :class:`ModelSpec` -- the full description of one model workload:
  registry name, model-specific parameters, solver and calibration config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

#: SolverConfig() defaults.
DEFAULT_POINTS_PER_UNIT = 20
DEFAULT_MAX_STEP = 0.02
DEFAULT_BACKEND = "internal"
DEFAULT_OPERATOR = "auto"


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
        (:data:`repro.numerics.backends.BACKENDS`).
    operator:
        Crank-Nicolson operator factorization mode
        (``auto`` | ``banded`` | ``thomas`` | ``dense``).
    """

    points_per_unit: int = DEFAULT_POINTS_PER_UNIT
    max_step: float = DEFAULT_MAX_STEP
    backend: str = DEFAULT_BACKEND
    operator: str = DEFAULT_OPERATOR

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
            "operator": self.operator,
        }


@dataclass(frozen=True)
class CalibrationConfig:
    """How DL parameters are fitted from the training window.

    Attributes
    ----------
    batch:
        ``True`` calibrates through the batched grid-then-refine path
        (``calibrate_dl_model(batch=True)``); ``False`` runs the sequential
        per-candidate protocol.  Models without a calibration stage ignore
        this config.
    """

    batch: bool = True

    def replace(self, **changes: Any) -> "CalibrationConfig":
        return replace(self, **changes)

    def to_json_dict(self) -> dict:
        return {"batch": self.batch}


@dataclass(frozen=True)
class ModelSpec:
    """One model workload: registry name, parameters, solver, calibration.

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
    calibration:
        The :class:`CalibrationConfig`; only meaningful for ``dl``.
    """

    name: str = "dl"
    params: Mapping[str, Any] = field(default_factory=dict)
    solver: SolverConfig = field(default_factory=SolverConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

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
            "calibration": self.calibration.to_json_dict(),
        }
