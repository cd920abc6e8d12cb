"""The paper's primary contribution: the Diffusive Logistic (DL) model.

The DL model (Equation 4 of the paper) describes the density of influenced
users ``I(x, t)`` at distance ``x`` from the information source at time ``t``::

    dI/dt = d * d2I/dx2 + r(t) * I * (1 - I / K)
    I(x, 1) = phi(x)
    dI/dx(l, t) = dI/dx(L, t) = 0

* :mod:`repro.core.parameters` -- parameter containers and growth-rate
  families, including the paper's published settings for story s1.
* :mod:`repro.core.initial_density` -- construction and validation of phi.
* :mod:`repro.core.dl_model` -- the PDE model itself.
* :mod:`repro.core.properties` -- numeric verification of the unique-solution
  and strictly-increasing properties (Section II-C).
* :mod:`repro.core.calibration` -- fitting r(t), d, K from early observations.
* :mod:`repro.core.prediction` -- the end-to-end predictor used in the
  evaluation (observe hour 1, predict hours 2..6).
* :mod:`repro.core.accuracy` -- the paper's prediction-accuracy metric and the
  machinery regenerating Tables I and II.
* :mod:`repro.core.registry` -- the one name -> entry :class:`Registry`
  behind solver backends, models, executors and transports.
"""

from repro.core.config import (
    CalibrationConfig,
    ModelSpec,
    SolverConfig,
)
from repro.core.errors import NotFittedError, UnknownNameError
from repro.core.registry import Registry
from repro.core.parameters import (
    PAPER_S1_HOP_PARAMETERS,
    PAPER_S1_INTEREST_PARAMETERS,
    ConstantGrowthRate,
    DLParameters,
    ExponentialDecayGrowthRate,
    GrowthRate,
    SpaceTimeGrowthRate,
)
from repro.core.initial_density import InitialDensity, LowerSolutionReport
from repro.core.dl_model import DiffusiveLogisticModel, DLSolution, solve_dl_batch
from repro.core.properties import (
    check_solution_bounds,
    check_strictly_increasing,
    is_lower_time_independent_solution,
)
from repro.core.calibration import (
    CalibrationResult,
    calibrate_dl_model,
    calibrate_dl_shard,
    choose_carrying_capacity,
)
from repro.core.extensions import (
    SpatiallyScaledGrowthRate,
    calibrate_spatial_scaling,
    spatially_scaled_parameters,
)
from repro.core.prediction import (
    BatchPredictionResult,
    BatchPredictor,
    DiffusionPredictor,
    PredictionResult,
)
from repro.core.accuracy import (
    AccuracyTable,
    build_accuracy_table,
    prediction_accuracy,
    relative_error,
)

__all__ = [
    "SolverConfig",
    "CalibrationConfig",
    "ModelSpec",
    "NotFittedError",
    "UnknownNameError",
    "Registry",
    "DLParameters",
    "GrowthRate",
    "ConstantGrowthRate",
    "ExponentialDecayGrowthRate",
    "SpaceTimeGrowthRate",
    "PAPER_S1_HOP_PARAMETERS",
    "PAPER_S1_INTEREST_PARAMETERS",
    "InitialDensity",
    "LowerSolutionReport",
    "DiffusiveLogisticModel",
    "DLSolution",
    "solve_dl_batch",
    "check_solution_bounds",
    "check_strictly_increasing",
    "is_lower_time_independent_solution",
    "CalibrationResult",
    "calibrate_dl_model",
    "calibrate_dl_shard",
    "choose_carrying_capacity",
    "SpatiallyScaledGrowthRate",
    "calibrate_spatial_scaling",
    "spatially_scaled_parameters",
    "DiffusionPredictor",
    "PredictionResult",
    "BatchPredictor",
    "BatchPredictionResult",
    "AccuracyTable",
    "build_accuracy_table",
    "prediction_accuracy",
    "relative_error",
]
