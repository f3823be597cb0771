"""Unit tests for the size predictor, kNN classifier and blob analyzer."""

import pytest

from repro.core.analysis import PartialMultiplexingAnalyzer
from repro.core.estimator import ObjectEstimate
from repro.core.predictor import (
    NearestNeighborClassifier,
    SizePredictor,
)

SIZE_MAP = {"small": 5200, "medium": 9900, "large": 15800}


def _estimate(payload, start=1.0):
    return ObjectEstimate(
        start_time=start, end_time=start + 0.01,
        payload_bytes=payload, packets=5, record_starts=4,
    )


def _predictor(**kwargs):
    return SizePredictor(SIZE_MAP, **kwargs)


def test_expected_payload_model():
    predictor = _predictor(chunk_bytes=2048)
    # 5200 B body → 3 DATA frames → 3×(9+29) overhead + headers 120.
    assert predictor.expected_payload(5200) == 5200 + 3 * 38 + 120


def test_expected_for_unknown_raises():
    with pytest.raises(KeyError):
        _predictor().expected_for("nope")


def test_classify_within_tolerance():
    predictor = _predictor()
    expected = predictor.expected_for("medium")
    match = predictor.classify(_estimate(expected + 100))
    assert match is not None and match.object_id == "medium"
    assert match.error == 100


def test_classify_out_of_tolerance_none():
    predictor = _predictor(tolerance_abs=50, tolerance_rel=0.001)
    expected = predictor.expected_for("medium")
    assert predictor.classify(_estimate(expected + 500)) is None


def test_classify_restricted_candidates():
    predictor = _predictor()
    expected = predictor.expected_for("medium")
    match = predictor.classify(
        _estimate(expected), candidates=["small", "large"]
    )
    assert match is None


def test_find_object_best_match():
    predictor = _predictor()
    expected = predictor.expected_for("small")
    estimates = [_estimate(expected + 300), _estimate(expected + 10)]
    best = predictor.find_object(estimates, "small")
    assert best.payload_bytes == expected + 10


def test_predict_sequence_assignment_recovers_order():
    predictor = _predictor()
    order = ["medium", "large", "small"]
    estimates = [
        _estimate(predictor.expected_for(object_id), start=float(index))
        for index, object_id in enumerate(order)
    ]
    labelled = predictor.predict_sequence_assignment(estimates, list(SIZE_MAP))
    assert [match.object_id for _, match in labelled] == order


def test_predict_sequence_assignment_rejects_early_junk():
    """A dense late window wins over scattered early coincidences."""
    predictor = _predictor()
    early_junk = [
        _estimate(predictor.expected_for("small") + 40, start=0.0),
        _estimate(predictor.expected_for("large") - 60, start=3.0),
    ]
    true_run = [
        _estimate(predictor.expected_for("large"), start=10.0),
        _estimate(predictor.expected_for("small"), start=10.2),
        _estimate(predictor.expected_for("medium"), start=10.4),
    ]
    labelled = predictor.predict_sequence_assignment(
        early_junk + true_run, list(SIZE_MAP)
    )
    assert [match.object_id for _, match in labelled] == [
        "large", "small", "medium"
    ]


def test_predict_sequence_assignment_empty():
    assert _predictor().predict_sequence_assignment([], list(SIZE_MAP)) == []


def _labels(labelled):
    return [(estimate.start_time, match.object_id) for estimate, match in labelled]


# Tie cases: a duplicate serving carries the same size, so which duplicate
# wins is the assignment's tie rule.  Expected values were recorded with
# scipy.optimize.linear_sum_assignment.

def test_predict_sequence_assignment_duplicate_serving_tie():
    predictor = _predictor()
    estimates = [
        _estimate(predictor.expected_for("small"), start=1.0),
        _estimate(predictor.expected_for("small"), start=1.2),
        _estimate(predictor.expected_for("large"), start=1.4),
        _estimate(predictor.expected_for("medium"), start=1.6),
    ]
    labelled = predictor.predict_sequence_assignment(estimates, list(SIZE_MAP))
    assert _labels(labelled) == [(1.0, "small"), (1.4, "large"), (1.6, "medium")]


def test_predict_sequence_assignment_equal_error_tie():
    predictor = _predictor()
    estimates = [
        _estimate(predictor.expected_for("small") + 20, start=1.0),
        _estimate(predictor.expected_for("small") - 20, start=1.2),
        _estimate(predictor.expected_for("large"), start=1.4),
    ]
    labelled = predictor.predict_sequence_assignment(estimates, list(SIZE_MAP))
    assert _labels(labelled) == [(1.0, "small"), (1.4, "large")]


def test_predict_sequence_assignment_empty_pool():
    predictor = _predictor()
    estimates = [_estimate(predictor.expected_for("small"))]
    assert predictor.predict_sequence_assignment(estimates, []) == []


def test_empty_size_map_rejected():
    with pytest.raises(ValueError):
        SizePredictor({})


# -- NearestNeighborClassifier ---------------------------------------------------

def test_knn_basic_classification():
    classifier = NearestNeighborClassifier(k=1)
    classifier.fit([[0.0], [10.0], [20.0]], ["a", "b", "c"])
    assert classifier.predict([[1.0], [19.0]]) == ["a", "c"]


def test_knn_majority_vote():
    classifier = NearestNeighborClassifier(k=3)
    classifier.fit(
        [[0.0], [0.5], [1.0], [10.0]], ["a", "a", "b", "b"]
    )
    assert classifier.predict([[0.2]]) == ["a"]


def test_knn_score():
    classifier = NearestNeighborClassifier(k=1)
    classifier.fit([[0.0], [10.0]], ["a", "b"])
    assert classifier.score([[0.1], [9.0]], ["a", "b"]) == 1.0


def test_knn_standardizes_features():
    # Second dimension has a huge scale; without standardization it
    # would dominate.
    classifier = NearestNeighborClassifier(k=1)
    classifier.fit(
        [[0.0, 1e6], [1.0, 1e6 + 1]], ["a", "b"]
    )
    assert classifier.predict([[0.1, 1e6]]) == ["a"]


def test_knn_validation():
    with pytest.raises(ValueError):
        NearestNeighborClassifier(k=0)
    classifier = NearestNeighborClassifier(k=3)
    with pytest.raises(ValueError):
        classifier.fit([[1.0]], ["a"])  # fewer points than k
    with pytest.raises(RuntimeError):
        NearestNeighborClassifier().predict([[1.0]])


# -- PartialMultiplexingAnalyzer ----------------------------------------------------

def test_blob_explained_by_pair():
    predictor = _predictor()
    analyzer = PartialMultiplexingAnalyzer(predictor)
    blob = _estimate(
        predictor.expected_for("small") + predictor.expected_for("medium")
    )
    explanations = analyzer.explain(blob)
    assert explanations
    assert explanations[0].object_ids == ("medium", "small")


def test_blob_single_object_explanation():
    predictor = _predictor()
    analyzer = PartialMultiplexingAnalyzer(predictor)
    blob = _estimate(predictor.expected_for("large") + 30)
    explanations = analyzer.explain(blob)
    assert explanations[0].object_ids == ("large",)


def test_blob_identify_members_unambiguous():
    predictor = _predictor()
    analyzer = PartialMultiplexingAnalyzer(predictor, tolerance_abs=200)
    blob = _estimate(
        predictor.expected_for("small") + predictor.expected_for("large")
    )
    assert analyzer.identify_members(blob) == ("large", "small")


def test_blob_identify_members_ambiguous_returns_none():
    # Craft a size map where two subsets sum nearly equal.
    predictor = SizePredictor({"a": 5000, "b": 7000, "c": 12020})
    analyzer = PartialMultiplexingAnalyzer(predictor, tolerance_abs=500)
    blob = _estimate(predictor.expected_for("a") + predictor.expected_for("b"))
    # {a,b} ≈ {c} in size → ambiguous.
    assert analyzer.identify_members(blob) is None


def test_blob_no_explanation():
    predictor = _predictor()
    analyzer = PartialMultiplexingAnalyzer(
        predictor, tolerance_abs=10, tolerance_rel=0.0001
    )
    assert analyzer.explain(_estimate(1234)) == []
    assert analyzer.identify_members(_estimate(1234)) is None


def test_blob_analyzer_validation():
    with pytest.raises(ValueError):
        PartialMultiplexingAnalyzer(_predictor(), max_objects_per_blob=0)
