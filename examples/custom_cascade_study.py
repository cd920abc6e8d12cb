"""Study a custom cascade on your own network with the DL model.

The synthetic Digg corpus is convenient, but the library works with any
follower graph and any vote cascade.  This example builds everything by hand:

1. generate a follower graph (here: a small-world topology, to show the model
   is not tied to the Digg-like generator),
2. simulate a single story's cascade with explicit parameters,
3. compute the density surface I(x, t) with friendship hops as distance,
4. calibrate the DL model on the first four observed hours only,
5. forecast the next eight hours and compare against what actually happened,
   side by side with the temporal-only per-distance logistic baseline.

The run ends with the paper's two self-checks on the forecast (Section II-C);
it exits with status 1 if either fails.

Run with:  python examples/custom_cascade_study.py
"""

import sys

import numpy as np

from repro.baselines.logistic import PerDistanceLogisticBaseline
from repro.cascade.density import compute_density_surface
from repro.cascade.frontpage import FrontPageModel
from repro.cascade.simulator import CascadeConfig, CascadeSimulator
from repro.core.accuracy import build_accuracy_table
from repro.core.prediction import DiffusionPredictor
from repro.io.tables import format_table
from repro.network.distance import friendship_hop_distances
from repro.network.generators import generate_small_world_graph

TRAINING_HOURS = [1.0, 2.0, 3.0, 4.0]
FORECAST_HOURS = [float(t) for t in range(5, 13)]


def main() -> int:
    rng = np.random.default_rng(2024)

    # 1. A small-world follower graph: 1,200 users, each following ~6 others.
    graph = generate_small_world_graph(1200, neighbours=6, rewiring_probability=0.15, seed=3)
    initiator = 0
    print(f"Graph: {graph!r}")

    # 2. One story's cascade: a follower hazard strong enough for the story to
    #    spread several hops within the training window, plus a front page
    #    that promotes after 5 votes.
    config = CascadeConfig(
        follow_hazard=0.3,
        reinforcement=0.4,
        interest_decay=0.15,
        front_page=FrontPageModel(promotion_threshold=5, discovery_rate=25.0, staleness_decay=0.2),
        horizon_hours=24.0,
        time_step=0.25,
    )
    story = CascadeSimulator(graph, config).simulate(0, initiator, rng)
    print(f"Simulated cascade: {story.num_votes} votes over 24 hours")

    # 3. Density surface over hop distances 1..6, hourly.
    distances = friendship_hop_distances(graph, initiator)
    max_distance = min(6, max(distances.values()))
    observed = compute_density_surface(
        story, distances, range(1, max_distance + 1), times=np.arange(1.0, 25.0)
    )
    print(f"Density surface: {observed.values.shape[0]} hours x {observed.values.shape[1]} distances")

    # 4. Calibrate the DL model on the first four hours only.
    predictor = DiffusionPredictor().fit(observed, training_times=TRAINING_HOURS)
    print(f"Calibrated parameters: {predictor.parameters}")

    # 5. Forecast hours 5-12 and score both the DL model and the baseline.
    dl_result = predictor.evaluate(observed, times=FORECAST_HOURS)
    baseline = PerDistanceLogisticBaseline().fit(observed, TRAINING_HOURS)
    baseline_table = build_accuracy_table(
        baseline.predict(FORECAST_HOURS),
        observed.restrict_times(FORECAST_HOURS),
        times=FORECAST_HOURS,
    )

    rows = []
    for distance in observed.distances:
        rows.append(
            {
                "distance": float(distance),
                "actual @ t=12": observed.density(float(distance), 12.0),
                "DL forecast @ t=12": dl_result.predicted.density(float(distance), 12.0),
                "DL accuracy": dl_result.accuracy_at_distance(float(distance)),
                "logistic accuracy": baseline_table.row_average(float(distance)),
            }
        )
    print()
    print(format_table(rows, title="Forecast of hours 5-12 from a 4-hour training window"))
    print()
    print(f"DL model overall forecast accuracy:        {dl_result.overall_accuracy * 100:.1f}%")
    print(f"Per-distance logistic baseline accuracy:   {baseline_table.overall_average * 100:.1f}%")
    print()
    print("Self-checks from the paper's theory (Section II-C):")
    checks = {
        "0 <= I <= K everywhere:  ": dl_result.diagnostics["bounds_ok"],
        "I non-decreasing in time:": dl_result.diagnostics["monotone_in_time"],
    }
    for label, passed in checks.items():
        print(f"  {label}    {passed}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
