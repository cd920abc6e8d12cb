"""repro: a reproduction of the Diffusive Logistic information-diffusion model.

This package reproduces "Diffusive Logistic Model Towards Predicting
Information Diffusion in Online Social Networks" (Wang, Wang, Xu, ICDCS 2012)
as a standalone Python library:

* :mod:`repro.core` -- the Diffusive Logistic PDE model, its parameters,
  initial-density construction, calibration, prediction and the paper's
  accuracy metric.
* :mod:`repro.numerics` -- the numerical substrate (splines, finite
  differences, the batched Crank-Nicolson reaction-diffusion solver) built
  from scratch on numpy.
* :mod:`repro.network` -- directed follower graphs, synthetic Digg-like graph
  generators and the two distance metrics (friendship hops, shared interests).
* :mod:`repro.cascade` -- vote cascades, the stochastic cascade simulator,
  the synthetic Digg corpus and density-surface extraction.
* :mod:`repro.models` -- the unified model API: the ``PredictionModel``
  protocol, the model registry (``dl``, ``logistic``, ``sis``,
  ``linear-influence``, plus runtime registrations) and head-to-head
  comparison (``repro compare``).
* :mod:`repro.service` -- the async multi-story prediction service: corpus
  sharding by spatial signature and model plus a bounded worker pool with
  submit/await/stream APIs (``repro serve-batch``).
* :mod:`repro.baselines` -- temporal-only and graph-level diffusion baselines.
* :mod:`repro.analysis` -- pattern characterisation, per-figure/table
  experiment runners and text reports.

Quickstart
----------
>>> from repro import DiffusionPredictor, build_synthetic_digg_dataset
>>> corpus = build_synthetic_digg_dataset()                      # doctest: +SKIP
>>> observed = corpus.hop_density_surface("s1")                  # doctest: +SKIP
>>> predictor = DiffusionPredictor().fit(observed)               # doctest: +SKIP
>>> result = predictor.evaluate(observed)                        # doctest: +SKIP
>>> round(result.overall_accuracy, 2)                            # doctest: +SKIP
0.9
"""

from repro.cascade import (
    CascadeDataset,
    CascadeSimulator,
    DensitySurface,
    SyntheticDiggConfig,
    SyntheticDiggDataset,
    build_synthetic_digg_dataset,
    compute_density_surface,
)
from repro.core import (
    PAPER_S1_HOP_PARAMETERS,
    PAPER_S1_INTEREST_PARAMETERS,
    BatchPredictionResult,
    BatchPredictor,
    CalibrationConfig,
    DiffusionPredictor,
    DiffusiveLogisticModel,
    DLParameters,
    ExponentialDecayGrowthRate,
    InitialDensity,
    ModelSpec,
    NotFittedError,
    PredictionResult,
    SolverConfig,
    UnknownNameError,
    build_accuracy_table,
    calibrate_dl_model,
    solve_dl_batch,
)
from repro.models import (
    MODELS,
    PredictionModel,
    compare_models,
    get_model,
)
from repro.network import SocialGraph, generate_digg_like_graph
from repro.service import CorpusSharder, PredictionService, score_corpus_sync

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DiffusiveLogisticModel",
    "DiffusionPredictor",
    "BatchPredictor",
    "BatchPredictionResult",
    "PredictionResult",
    "solve_dl_batch",
    "DLParameters",
    "ExponentialDecayGrowthRate",
    "InitialDensity",
    "PAPER_S1_HOP_PARAMETERS",
    "PAPER_S1_INTEREST_PARAMETERS",
    "build_accuracy_table",
    "calibrate_dl_model",
    "DensitySurface",
    "compute_density_surface",
    "CascadeDataset",
    "CascadeSimulator",
    "SyntheticDiggConfig",
    "SyntheticDiggDataset",
    "build_synthetic_digg_dataset",
    "SocialGraph",
    "generate_digg_like_graph",
    "PredictionService",
    "CorpusSharder",
    "score_corpus_sync",
    "SolverConfig",
    "CalibrationConfig",
    "ModelSpec",
    "NotFittedError",
    "UnknownNameError",
    "PredictionModel",
    "MODELS",
    "get_model",
    "compare_models",
]
