"""The array Eq. 8 scorer against the cell-by-cell loop it replaced.

``build_accuracy_table`` resolves each surface's rows and columns once and
scores every cell in one array expression.  These tests keep the scalar loop
(``prediction_accuracy`` over ``DensitySurface.density``) as the reference
and require the same bits, the same errors and a lookup count that does not
grow with the table.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cascade.density import DensitySurface
from repro.core.accuracy import AccuracyTable, build_accuracy_table, prediction_accuracy
from repro.core.config import SolverConfig
from repro.core.parameters import PAPER_S1_HOP_PARAMETERS
from repro.core.prediction import BatchPredictor, PredictionResult
from repro.corpus import WorkloadConfig, generate_store
from repro.service.daemon import story_result_payload


def first_match(axis: np.ndarray, label, name: str, container: str = "surface") -> int:
    """The one-label scan every lookup used to make."""
    matches = np.nonzero(np.isclose(axis, label))[0]
    if matches.size == 0:
        raise KeyError(f"{name} {label} is not in the {container}")
    return int(matches[0])


def scalar_density(surface: DensitySurface, distance: float, time: float) -> float:
    """``DensitySurface.density`` as it was: two scans per call."""
    row = first_match(surface.times, time, "time")
    return float(surface.values[row, first_match(surface.distances, distance, "distance")])


def scalar_accuracies(predicted, actual, times, distances) -> np.ndarray:
    """The reference: Eq. 8 one cell at a time, through ``scalar_density``."""
    if predicted.unit != actual.unit:
        raise ValueError(
            f"unit mismatch: predicted is in {predicted.unit!r}, actual in {actual.unit!r}"
        )
    times = [float(t) for t in times]
    distances = [float(d) for d in distances]
    accuracies = np.zeros((len(distances), len(times)))
    for i, distance in enumerate(distances):
        for j, time in enumerate(times):
            accuracies[i, j] = prediction_accuracy(
                scalar_density(predicted, distance, time), scalar_density(actual, distance, time)
            )
    return accuracies


def outcome(score, *args):
    """The bytes a scorer returns, or the type and text of what it raises."""
    try:
        result = score(*args)
    except (KeyError, ValueError) as error:
        return type(error), str(error)
    return np.asarray(result, dtype=float).tobytes()


def array_accuracies(predicted, actual, times, distances) -> np.ndarray:
    return build_accuracy_table(predicted, actual, times=times, distances=distances).accuracies


LABELS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
#: Offsets an axis label may carry: 1e-10 matches only through ``isclose``.
JITTER = st.sampled_from([0.0, 0.0, 1e-10, -1e-10])
PREDICTED_CELL = st.one_of(
    st.floats(0.0, 100.0),
    st.just(0.0),
    st.just(math.nan),
    st.just(math.inf),
    st.floats(0.0, 1e300),
)
ACTUAL_CELL = st.one_of(st.floats(0.0, 100.0), st.just(0.0), st.just(1e-13), st.just(math.nan))


@st.composite
def axis(draw, required):
    """Axis labels covering ``required``, jittered, shuffled, maybe duplicated."""
    labels = list(required) + draw(st.lists(st.sampled_from(LABELS), max_size=3))
    labels = draw(st.permutations(labels))
    return [label + draw(JITTER) for label in labels]


@st.composite
def surface(draw, times, distances, unit="percent"):
    time_axis = draw(axis(times))
    distance_axis = draw(axis(distances))
    cell = PREDICTED_CELL if draw(st.booleans()) else ACTUAL_CELL
    values = draw(
        st.lists(
            st.lists(cell, min_size=len(distance_axis), max_size=len(distance_axis)),
            min_size=len(time_axis),
            max_size=len(time_axis),
        )
    )
    return DensitySurface(
        distances=distance_axis,
        times=time_axis,
        values=np.array(values, dtype=float).reshape(len(time_axis), len(distance_axis)),
        group_sizes=np.ones(len(distance_axis)),
        unit=unit,
    )


@st.composite
def scoring_case(draw):
    times = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    distances = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6))
    predicted = draw(surface(times, distances))
    actual = draw(surface(times, distances))
    query_times = [t + draw(JITTER) for t in times]
    query_distances = [d + draw(JITTER) for d in distances]
    return predicted, actual, query_times, query_distances


@settings(max_examples=300, deadline=None)
@given(scoring_case())
def test_array_scorer_matches_scalar_loop_bit_for_bit(case):
    predicted, actual, times, distances = case
    expected = scalar_accuracies(predicted, actual, times, distances)
    table = build_accuracy_table(predicted, actual, times=times, distances=distances)
    assert table.accuracies.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(scoring_case(), st.data())
def test_missing_labels_raise_the_scalar_loops_key_error(case, data):
    predicted, actual, times, distances = case
    # Drop labels from either axis of either surface, and ask for labels no
    # axis has; several may be missing at once.
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from([predicted, actual]))
        name = data.draw(st.sampled_from(["times", "distances"]))
        labels = getattr(target, name)
        if data.draw(st.booleans()) and labels.size > 1:
            keep = np.ones(labels.size, dtype=bool)
            keep[data.draw(st.integers(0, labels.size - 1))] = False
            setattr(target, name, labels[keep])
            target.values = target.values[keep, :] if name == "times" else target.values[:, keep]
            if name == "distances":
                target.group_sizes = target.group_sizes[keep]
        else:
            queries = times if name == "times" else distances
            queries.insert(data.draw(st.integers(0, len(queries))), 50.0 + len(queries))
    expected = outcome(scalar_accuracies, predicted, actual, times, distances)
    assert outcome(array_accuracies, predicted, actual, times, distances) == expected


def test_missing_label_text():
    predicted = DensitySurface([1, 2], [1.0, 2.0], np.ones((2, 2)), [1, 1])
    with pytest.raises(KeyError, match="time 3.0 is not in the surface"):
        build_accuracy_table(predicted, predicted, times=[2.0, 3.0])
    with pytest.raises(KeyError, match="distance 7.0 is not in the surface"):
        build_accuracy_table(predicted, predicted, times=[2.0], distances=[1, 7])


def test_unit_mismatch_raises_the_scalar_loops_value_error():
    values = np.ones((2, 2))
    percent = DensitySurface([1, 2], [1.0, 2.0], values, [1, 1])
    fraction = DensitySurface([1, 2], [1.0, 2.0], values, [1, 1], unit="fraction")
    expected = outcome(scalar_accuracies, percent, fraction, [2.0], [1.0, 2.0])
    assert expected[0] is ValueError
    assert outcome(array_accuracies, percent, fraction, [2.0], [1.0, 2.0]) == expected


def test_edge_cells():
    # Zero actuals (the epsilon denominator), NaN and infinite predictions,
    # and a NaN actual, side by side in one row.
    predicted = DensitySurface(
        [1, 2, 3, 4, 5, 6], [1.0, 2.0],
        [[1.0] * 6, [0.0, 1e-13, math.nan, math.inf, 5.0, 2.0]],
        np.ones(6),
    )
    actual = DensitySurface(
        [1, 2, 3, 4, 5, 6], [1.0, 2.0],
        [[1.0] * 6, [0.0, 0.0, 4.0, 4.0, math.nan, 2.0]],
        np.ones(6),
    )
    table = build_accuracy_table(predicted, actual)
    expected = scalar_accuracies(predicted, actual, [2.0], actual.distances)
    assert table.accuracies.tobytes() == expected.tobytes()
    assert table.accuracies.ravel().tolist() == pytest.approx([1.0, 0.9, 0.0, 0.0, 0.0, 1.0])


def test_duplicate_labels_take_the_first_match():
    # 2.0 + 1e-10 and 2.0 both match a query of 2.0; the first one wins.
    predicted = DensitySurface([1.0, 2.0 + 1e-10, 2.0], [1.0, 2.0], [[1, 1, 1], [1, 4, 8]], [1] * 3)
    actual = DensitySurface([2.0, 1.0], [1.0, 2.0], [[1, 1], [4, 1]], [1, 1])
    table = build_accuracy_table(predicted, actual, times=[2.0], distances=[2.0])
    assert table.accuracies.tolist() == [[1.0]]


def test_lookup_tolerance_scales_with_the_label():
    # isclose(axis, label) is asymmetric: this label is within the tolerance
    # scaled by itself, not by the axis value 1.0.
    label = 1.0 + 1.0010005e-5
    assert np.isclose(1.0, label) and not np.isclose(label, 1.0)
    surface = DensitySurface([1.0, 2.0], [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]], [1, 1])
    assert surface.distance_indices([label, 2.0]).tolist() == [0, 1]
    assert surface.density(label, 2.0) == scalar_density(surface, label, 2.0) == 3.0
    table = build_accuracy_table(surface, surface, times=[2.0], distances=[label])
    assert table.accuracies.tolist() == [[1.0]]


@st.composite
def accuracy_table(draw):
    distances = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12, unique=True))
    times = draw(st.integers(1, 40))
    accuracies = draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=len(distances) * times, max_size=len(distances) * times
        )
    )
    return AccuracyTable(
        distances=[float(d) for d in distances],
        times=[float(t) for t in range(2, times + 2)],
        accuracies=np.reshape(accuracies, (len(distances), times)),
    )


@settings(max_examples=100, deadline=None)
@given(accuracy_table())
def test_payload_matches_the_per_distance_loop(table):
    distances = table.distances
    surface = DensitySurface(
        distances, table.times, np.ones((table.times.size, distances.size)), np.ones(distances.size)
    )
    result = PredictionResult(
        predicted=surface,
        actual=surface,
        accuracy_table=table,
        parameters=PAPER_S1_HOP_PARAMETERS,
    )
    # The per-distance loop: accuracy_at_distance -> row_average, as it was.
    expected = {
        str(distance): float(
            table.accuracies[first_match(table.distances, distance, "distance", "table")].mean()
        )
        for distance in result.predicted.distances
    }
    assert all(result.accuracy_at_distance(d) == v for d, v in zip(distances, expected.values()))
    payload = story_result_payload(result)["accuracy_by_distance"]
    assert list(payload) == list(expected)
    assert [value.hex() for value in payload.values()] == [
        value.hex() for value in expected.values()
    ]


SOLVER = SolverConfig(points_per_unit=4, max_step=0.25)


def _story(distances: int, hours: int) -> DensitySurface:
    times = np.arange(1.0, hours + 1.0)
    values = np.outer(np.log1p(times), np.linspace(3.0, 1.0, distances))
    return DensitySurface(np.arange(1.0, distances + 1.0), times, values, np.ones(distances))


def _scoring_isclose_calls(monkeypatch, story: DensitySurface) -> int:
    predictor = BatchPredictor(PAPER_S1_HOP_PARAMETERS, solver=SOLVER).fit({"s": story})
    calls = []
    real_isclose = np.isclose

    def counting_isclose(*args, **kwargs):
        calls.append(1)
        return real_isclose(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "isclose", counting_isclose)
        story_result_payload(predictor.evaluate({"s": story})["s"])
    return len(calls)


def test_scoring_makes_a_fixed_number_of_isclose_calls(monkeypatch):
    # Evaluation-time resolution (1), restricting the observed surface to the
    # scored times and distances (2), the table's four axis lookups (4) and
    # the payload's row lookup (1).  Scoring cell by cell made 4 calls per
    # cell plus one per evaluation time, restricted label and payload row:
    # 275 for the 12-distance story.
    large = _scoring_isclose_calls(monkeypatch, _story(distances=12, hours=8))
    small = _scoring_isclose_calls(monkeypatch, _story(distances=2, hours=3))
    assert large == small == 8


def test_store_backed_evaluate_matches_the_materialized_one(tmp_path):
    store = generate_store(WorkloadConfig(stories=3, max_distances=6), tmp_path / "store")
    handles = store.handles()
    surfaces = {name: handle.load() for name, handle in handles.items()}

    def evaluate(corpus):
        return (
            BatchPredictor(PAPER_S1_HOP_PARAMETERS, solver=SOLVER).fit(corpus).evaluate(corpus)
        )

    lazy, materialized = evaluate(handles), evaluate(surfaces)
    for name in surfaces:
        store_backed, in_memory = lazy[name], materialized[name]
        assert store_backed.accuracy_table.accuracies.tobytes() == (
            in_memory.accuracy_table.accuracies.tobytes()
        )
        assert store_backed.predicted.values.tobytes() == in_memory.predicted.values.tobytes()
        assert store_backed.actual.values.tobytes() == in_memory.actual.values.tobytes()
        assert story_result_payload(store_backed) == story_result_payload(in_memory)
