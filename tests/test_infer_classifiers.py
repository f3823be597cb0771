"""Classifier registry: determinism, digests, and learning sanity.

Model digests are the seed-determinism surface: fitting the same
classifier on the same data with the same seed must produce the same
digest on every machine and worker, because the digest hashes the raw
parameter bytes.  The learning checks are intentionally easy — cleanly
separable toy classes — because the point is wiring, not benchmarking.

The logistic model fits every defense level as one stacked program.
The one-level loop it replaced is kept here as the reference, and
Hypothesis demands the same model bytes from both for every level.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.infer.classifiers import (
    CLASSIFIER_REGISTRY,
    UNMATCHED,
    ExactMatchClassifier,
    LogisticClassifier,
    classifier_names,
    resolve_classifier,
)
from repro.infer.features import FeatureConfig, feature_length
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


# -- stacked fits --------------------------------------------------------

class ReferenceLogistic(LogisticClassifier):
    """Reference: the one-level gradient-descent loop, before stacking."""

    def fit(self, features, labels):
        matrix = np.asarray(features, dtype=np.float64)
        label_array = np.asarray(labels, dtype=np.int64)
        self._mean = matrix.mean(axis=0)
        centered = matrix - self._mean
        self._scale = np.sqrt((centered * centered).mean(axis=0))
        self._scale[self._scale == 0.0] = 1.0
        scaled = (matrix - self._mean) / self._scale
        self._labels = np.unique(label_array)
        classes = len(self._labels)
        label_index = {int(label): i for i, label in enumerate(self._labels)}
        one_hot = np.zeros((len(label_array), classes))
        for row, label in enumerate(label_array):
            one_hot[row, label_index[int(label)]] = 1.0

        weights = self._initial_weights(scaled.shape[1], classes)
        bias = np.zeros(classes)
        samples = float(len(label_array))
        for _ in range(self.EPOCHS):
            logits = np.einsum("nf,fc->nc", scaled, weights) + bias
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probabilities = exp / exp.sum(axis=1, keepdims=True)
            error = (probabilities - one_hot) / samples
            gradient_w = np.einsum("nf,nc->fc", scaled, error)
            gradient_b = error.sum(axis=0)
            weights -= self.LEARNING_RATE * gradient_w
            bias -= self.LEARNING_RATE * gradient_b
        self._weights = weights
        self._bias = bias
        return self


SEEDS = st.integers(-(2**63), 2**64 + 2**20) | st.sampled_from(
    [-1, -(2**63) - 5, 2**64, 2**64 + 99, 7 * 2**70 + 3]
)


@st.composite
def level_stacks(draw):
    """(stack, labels, seeds): an (L, N, F) int64 stack sharing labels.

    L runs up to 40 models, the (session × level) size one class-count
    group of an infer shard reaches.  Every label value occurs at least
    once; some columns are constant within a model (zero variance).
    """
    levels = draw(st.integers(1, 40))
    samples = draw(st.integers(2, 24))
    classes = draw(st.integers(2, min(8, samples)))
    width = draw(st.sampled_from([feature_length(FeatureConfig()), 1, 2, 5]))
    values = draw(st.lists(
        st.integers(-50, 10**6), min_size=classes, max_size=classes,
        unique=True,
    ))
    extra = draw(st.lists(
        st.sampled_from(values),
        min_size=samples - classes, max_size=samples - classes,
    ))
    labels = draw(st.permutations(values + extra))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([2, 50, 5_000, 2_000_000]))
    stack = rng.integers(0, high, size=(levels, samples, width))
    constant = draw(st.sets(st.integers(0, width - 1), max_size=width))
    for column in constant:
        stack[:, :, column] = stack[:, :1, column]
    seeds = draw(st.lists(SEEDS, min_size=levels, max_size=levels))
    return stack, labels, seeds


def fixed_stack(levels, samples, width, classes, seed):
    """A reproducible (stack, labels, seeds) case of the given shape."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 5_000, size=(levels, samples, width))
    labels = [int(c) * 3 - 2 for c in range(classes)]
    labels += [labels[i % classes] for i in range(samples - classes)]
    seeds = [seed + level for level in range(levels)]
    return stack, labels, seeds


# The examples sit where einsum's kernel choice or numpy's sum path can
# shift: one model (a size-1 axis), one feature, and 8 or more classes,
# from which numpy sums a contiguous row with 8 partial sums.
@settings(max_examples=80, deadline=None)
@given(level_stacks())
@example((np.zeros((2, 3, 4), dtype=np.int64), [5, 1, 5], [0, -1]))
@example(fixed_stack(1, 12, 32, 6, seed=1))
@example(fixed_stack(1, 9, 1, 9, seed=2))
@example(fixed_stack(6, 10, 1, 3, seed=3))
@example(fixed_stack(5, 16, 32, 8, seed=4))
@example(fixed_stack(3, 11, 5, 9, seed=5))
def test_stacked_logistic_fit_matches_one_level_loop(case):
    stack, labels, seeds = case
    models = [LogisticClassifier(seed) for seed in seeds]
    LogisticClassifier.fit_levels(models, stack, labels)
    for model, features, seed in zip(models, stack, seeds):
        reference = ReferenceLogistic(seed).fit(features, labels)
        assert model.model_digest() == reference.model_digest()
        probes = np.concatenate([features, stack[0][::-1] + 1])
        assert model.predict(probes) == reference.predict(probes)
        # The one-level fit is the same program.
        alone = LogisticClassifier(seed).fit(features, labels)
        assert alone.model_digest() == reference.model_digest()


def test_large_stacked_logistic_fit_matches_one_level_loop():
    # 300 models x 24 samples x 32 features is larger than numpy's
    # 8192-element iterator buffer; a sample of models is checked.
    stack, labels, seeds = fixed_stack(300, 24, 32, 8, seed=6)
    models = [LogisticClassifier(seed) for seed in seeds]
    LogisticClassifier.fit_levels(models, stack, labels)
    for level in (0, 1, 57, 150, 298, 299):
        reference = ReferenceLogistic(seeds[level]).fit(stack[level], labels)
        assert models[level].model_digest() == reference.model_digest()


@pytest.mark.parametrize("name", classifier_names())
def test_fit_levels_equals_fitting_each_level(name):
    rows, labels = _toy_data(classes=4)
    stack = np.stack([np.asarray(rows), np.asarray(rows) * 3 + 11])
    models = [resolve_classifier(name, seed) for seed in (4, 9)]
    type(models[0]).fit_levels(models, stack, labels)
    for model, features in zip(models, stack):
        alone = resolve_classifier(name, model.seed).fit(features, labels)
        assert model.model_digest() == alone.model_digest()
    with pytest.raises(ValueError):
        type(models[0]).fit_levels(models[:1], stack, labels)


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
