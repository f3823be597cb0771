"""Classifier registry: determinism, digests, and learning sanity.

Model digests are the seed-determinism surface: fitting the same
classifier on the same data with the same seed must produce the same
digest on every machine and worker, because the digest hashes the raw
parameter bytes.  The learning checks are intentionally easy — cleanly
separable toy classes — because the point is wiring, not benchmarking.
"""

import numpy as np
import pytest

from repro.infer.classifiers import (
    CLASSIFIER_REGISTRY,
    UNMATCHED,
    ExactMatchClassifier,
    LogisticClassifier,
    classifier_names,
    resolve_classifier,
)
from repro.simkernel.randomstream import CounterStream


def _toy_data(spread=0, classes=3, reps=4):
    """Separable classes: feature index 1 (the total) dominates."""
    rows, labels = [], []
    for label in range(classes):
        base = 10_000 * (label + 1)
        for rep in range(reps):
            jitter = (rep * 37 + spread) % 200
            rows.append((reps, base + jitter, 100, 500, rep, label))
            labels.append(label)
    return rows, labels


# -- registry ------------------------------------------------------------

def test_registry_names_and_order():
    assert classifier_names() == ("exact", "centroid", "knn", "logistic")
    assert set(CLASSIFIER_REGISTRY) == set(classifier_names())


def test_resolve_unknown_classifier():
    with pytest.raises(ValueError, match="nope"):
        resolve_classifier("nope", seed=1)


@pytest.mark.parametrize("name", classifier_names())
def test_resolved_classifier_roundtrips(name):
    clf = resolve_classifier(name, seed=99)
    assert clf.name == name
    assert clf.seed == 99


# -- model digests -------------------------------------------------------

@pytest.mark.parametrize("name", classifier_names())
def test_model_digest_is_seed_deterministic(name):
    rows, labels = _toy_data()
    first = resolve_classifier(name, seed=7)
    second = resolve_classifier(name, seed=7)
    first.fit(rows, labels)
    second.fit(rows, labels)
    assert first.model_digest() == second.model_digest()


def test_model_digest_depends_on_training_data():
    rows, labels = _toy_data()
    other_rows, other_labels = _toy_data(spread=13)
    for name in classifier_names():
        one = resolve_classifier(name, seed=7)
        two = resolve_classifier(name, seed=7)
        one.fit(rows, labels)
        two.fit(other_rows, other_labels)
        assert one.model_digest() != two.model_digest(), name


def test_logistic_digest_depends_on_seed():
    rows, labels = _toy_data()
    one = resolve_classifier("logistic", seed=1)
    two = resolve_classifier("logistic", seed=2)
    one.fit(rows, labels)
    two.fit(rows, labels)
    assert one.model_digest() != two.model_digest()


class ScalarInitLogistic(LogisticClassifier):
    """Reference: one ``CounterStream.random()`` call per init weight."""

    def _initial_weights(self, n_features, classes):
        stream = CounterStream(self.seed)
        return np.array([
            [
                (2.0 * stream.random() - 1.0) * self.INIT_SCALE
                for _ in range(classes)
            ]
            for _ in range(n_features)
        ])


@pytest.mark.parametrize("seed", [
    0, 1, 2**63, 2**64 - 1, -1, -(2**63) - 5, 2**64, 2**64 + 99, 7 * 2**70 + 3,
])
def test_vectorized_logistic_init_matches_scalar_loop(seed):
    # CounterStream masks seeds to 64 bits; the vector draw must too.
    rows, labels = _toy_data(classes=4)
    vector = LogisticClassifier(seed).fit(rows, labels)
    scalar = ScalarInitLogistic(seed).fit(rows, labels)
    assert vector.model_digest() == scalar.model_digest()


# -- learning sanity -----------------------------------------------------

@pytest.mark.parametrize("name", classifier_names())
def test_separable_classes_are_learned(name):
    rows, labels = _toy_data()
    clf = resolve_classifier(name, seed=5)
    clf.fit(rows, labels)
    probes = [(4, 10_050, 100, 500, 1, 0),
              (4, 20_050, 100, 500, 2, 1),
              (4, 30_050, 100, 500, 3, 2)]
    assert clf.predict(probes) == [0, 1, 2]


def test_predictions_are_repeatable():
    rows, labels = _toy_data()
    probes = rows[::2]
    for name in classifier_names():
        one = resolve_classifier(name, seed=3)
        one.fit(rows, labels)
        assert one.predict(probes) == one.predict(probes), name


# -- the exact-match baseline -------------------------------------------

def test_exact_match_tolerance_window():
    clf = ExactMatchClassifier(seed=0)
    rows = [(1, 100_000, 0, 0), (1, 200_000, 0, 0)]
    clf.fit(rows, [0, 1])
    tolerance = max(
        ExactMatchClassifier.TOLERANCE_ABS,
        100_000 * ExactMatchClassifier.TOLERANCE_PERMILLE // 1000,
    )
    inside = (1, 100_000 + tolerance, 0, 0)
    outside = (1, 100_000 + tolerance + 1, 0, 0)
    assert clf.predict([inside]) == [0]
    # Outside every class window: the paper's matcher reports nothing.
    far = (1, 150_000, 0, 0)
    assert clf.predict([far, outside]) == [UNMATCHED, UNMATCHED]


def test_exact_match_prefers_closest_class():
    clf = ExactMatchClassifier(seed=0)
    clf.fit([(1, 10_000, 0, 0), (1, 10_400, 0, 0)], [0, 1])
    # 10_180 is within both windows (abs tolerance 350) but closer to 0.
    assert clf.predict([(1, 10_180, 0, 0)]) == [0]
    assert clf.predict([(1, 10_320, 0, 0)]) == [1]
