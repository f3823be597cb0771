"""Classifier registry: determinism, digests, and learning sanity.

Model digests are the seed-determinism surface: fitting the same
classifier on the same data with the same seed must produce the same
digest on every machine and worker, because the digest hashes the raw
parameter bytes.  The learning checks are intentionally easy — cleanly
separable toy classes — because the point is wiring, not benchmarking.

Every classifier fits a whole stack of models (defense levels ×
sessions) as one array program, and all but the logistic model predict
one that way too.  The one-model code each stacked method replaced is
kept here as the reference, and Hypothesis demands the same model
bytes and the same predictions from both for every model; a real shard
group of the infer study is checked the same way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.infer.campaign import InferCampaignConfig
from repro.infer.classifiers import (
    CLASSIFIER_REGISTRY,
    UNMATCHED,
    Classifier,
    ExactMatchClassifier,
    KNNClassifier,
    LogisticClassifier,
    NearestCentroidClassifier,
    classifier_names,
    resolve_classifier,
)
from repro.infer.dataset import StudyDesign, _observe_session, evaluate_sessions
from repro.infer.defenses import defense_level
from repro.infer.features import FeatureConfig, feature_length
from repro.simkernel.randomstream import CounterStream, counter_stream_base
from repro.web.workload import PopulationWorkload


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

def reference_standardize(matrix):
    """One model's mean, scale and standardized rows, as fit alone."""
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    scale = np.sqrt((centered * centered).mean(axis=0))
    scale[scale == 0.0] = 1.0
    return mean, scale, (matrix - mean) / scale


class ReferenceLogistic(LogisticClassifier):
    """Reference: the one-level gradient-descent loop, before stacking."""

    def fit(self, features, labels):
        matrix = np.asarray(features, dtype=np.float64)
        label_array = np.asarray(labels, dtype=np.int64)
        self._mean, self._scale, scaled = reference_standardize(matrix)
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


class ReferenceExact(ExactMatchClassifier):
    """Reference: the one-model matcher, before stacking."""

    def fit(self, features, labels):
        per_label = {}
        for vector, label in zip(features, labels):
            per_label.setdefault(int(label), []).append(int(vector[1]))
        self._labels = sorted(per_label)
        self._totals = []
        for label in self._labels:
            totals = sorted(per_label[label])
            self._totals.append(totals[(len(totals) - 1) // 2])
        return self

    def predict(self, features):
        predictions = []
        for vector in features:
            observed = int(vector[1])
            best_label = UNMATCHED
            best_error = None
            for label, expected in zip(self._labels, self._totals):
                error = abs(observed - expected)
                tolerance = max(
                    self.TOLERANCE_ABS,
                    self.TOLERANCE_PERMILLE * expected // 1000,
                )
                if error > tolerance:
                    continue
                if best_error is None or error < best_error:
                    best_error = error
                    best_label = label
            predictions.append(best_label)
        return predictions


def reference_squared_distances(a, b):
    """One model's (len(a), len(b)) distances, all rows at once."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class ReferenceCentroid(NearestCentroidClassifier):
    """Reference: the one-model nearest centroid, before stacking."""

    def fit(self, features, labels):
        matrix = np.asarray(features, dtype=np.float64)
        label_array = np.asarray(labels, dtype=np.int64)
        self._mean, self._scale, scaled = reference_standardize(matrix)
        self._labels = np.unique(label_array)
        self._centroids = np.stack([
            scaled[label_array == label].mean(axis=0)
            for label in self._labels
        ])
        return self

    def predict(self, features):
        scaled = (np.asarray(features, dtype=np.float64) - self._mean) / self._scale
        distances = reference_squared_distances(scaled, self._centroids)
        return [int(self._labels[i]) for i in distances.argmin(axis=1)]


class ReferenceKNN(KNNClassifier):
    """Reference: the one-model k-NN with its per-row vote, before stacking."""

    def fit(self, features, labels):
        matrix = np.asarray(features, dtype=np.float64)
        self._mean, self._scale, self._train = reference_standardize(matrix)
        self._labels = np.asarray(labels, dtype=np.int64)
        return self

    def predict(self, features):
        scaled = (np.asarray(features, dtype=np.float64) - self._mean) / self._scale
        distances = reference_squared_distances(scaled, self._train)
        k = min(self.K, len(self._labels))
        order_index = np.arange(len(self._labels))
        predictions = []
        for row in distances:
            order = np.lexsort((order_index, row))
            votes = {}
            for neighbour in order[:k]:
                label = int(self._labels[neighbour])
                votes[label] = votes.get(label, 0) + 1
            predictions.append(
                min(votes, key=lambda label: (-votes[label], label))
            )
        return predictions


#: name -> (stacked classifier, its one-model reference).
REFERENCES = {
    "exact": (ExactMatchClassifier, ReferenceExact),
    "centroid": (NearestCentroidClassifier, ReferenceCentroid),
    "knn": (KNNClassifier, ReferenceKNN),
    "logistic": (LogisticClassifier, ReferenceLogistic),
}


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


def probe_stack(stack, labels):
    """Victims for every model of ``stack``, one (V, F) batch each.

    A model's own training rows, the first model's rows reversed and
    shifted, and (for two or more features) rows whose total sits at
    each label's exact-match tolerance and one past it on both sides,
    then one row that no label's window reaches.
    """
    rows = []
    for features in stack:
        edges = []
        if stack.shape[2] >= 2:
            for total in ReferenceExact().fit(features, labels)._totals:
                tolerance = max(
                    ExactMatchClassifier.TOLERANCE_ABS,
                    ExactMatchClassifier.TOLERANCE_PERMILLE * total // 1000,
                )
                edges += [
                    total - tolerance - 1, total - tolerance,
                    total + tolerance, total + tolerance + 1,
                ]
            edges.append(-10**9)
        boundary = np.repeat(features[:1], len(edges), axis=0)
        # A slice, so a one-feature stack (no edge rows) needs no case.
        boundary[:, 1:2] = np.asarray(edges, dtype=np.int64)[:, None]
        rows.append(np.concatenate([features, stack[0][::-1] + 1, boundary]))
    return np.stack(rows)


def duplicated_rows(levels, width, labels, seed):
    """A stack whose rows come in identical pairs with different labels.

    Row pair ``i`` carries ``labels[i]`` and ``labels[i + 1]``, so k-NN
    meets equal distances across labels, and with two labels both
    centroids coincide.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 5_000, size=(levels, len(labels), width))
    pairs = [
        label for i, label in enumerate(labels)
        for label in (label, labels[(i + 1) % len(labels)])
    ]
    return np.repeat(base, 2, axis=1), pairs, list(range(seed, seed + levels))


def exact_window_edges():
    """Totals whose windows overlap, with probes on their edges.

    Label 5 records 10 000 B (window ±500) and label -2 records
    11 000 B (window ±550): the probe at 10 500 B errs by exactly the
    tolerance from both, so the smaller label wins, and 9 499 B is in
    no window.  The second model has the same shape at twice the size.
    """
    rows = [(1, 10_000, 0, 7), (1, 10_000, 4, 1), (1, 11_000, 0, 2), (1, 11_000, 9, 5)]
    stack = np.array([rows, [(2, 2 * total, a, b) for _, total, a, b in rows]])
    return stack, [5, 5, -2, -2], [3, 4]


def assert_stack_matches_reference(name, case):
    """Stacked fit and predict of ``case`` equal the one-model reference.

    Every model's digest and predictions must equal the reference's,
    and the one-model ``fit``/``predict`` must give the same.
    """
    stack, labels, seeds = case
    kind, reference_kind = REFERENCES[name]
    models = [kind(seed) for seed in seeds]
    kind.fit_levels(models, stack, labels)
    probes = probe_stack(stack, labels)
    predictions = kind.predict_levels(models, probes)
    assert len(predictions) == len(models)
    for model, features, victims, predicted, seed in zip(
        models, stack, probes, predictions, seeds
    ):
        reference = reference_kind(seed).fit(features, labels)
        assert model.model_digest() == reference.model_digest()
        assert predicted == reference.predict(victims)
        # The one-model methods are the same program.
        alone = kind(seed).fit(features, labels)
        assert alone.model_digest() == reference.model_digest()
        assert alone.predict(victims) == predicted


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
    assert_stack_matches_reference("logistic", case)


def reference_logits(model, features):
    """A fitted logistic model's logits as the one-model einsum."""
    matrix = np.asarray(features, dtype=np.float64)
    scaled = (matrix - model._mean) / model._scale
    return np.einsum("nf,fc->nc", scaled, model._weights) + model._bias


@pytest.mark.parametrize("width", [2, 8, 33])
def test_logistic_logits_equal_the_one_model_einsum(width):
    # A prediction shows a logit's last bits only when its argmax
    # flips, so compare the logits themselves: a BLAS ``@`` rounds
    # differently on most shapes.
    stack, labels, seeds = fixed_stack(4, 24, width, 6, seed=width)
    models = [LogisticClassifier(seed) for seed in seeds]
    LogisticClassifier.fit_levels(models, stack, labels)
    for model, victims in zip(models, probe_stack(stack, labels)):
        assert model._logits(victims).tobytes() == \
            reference_logits(model, victims).tobytes()


def test_large_stacked_logistic_fit_matches_one_level_loop():
    # 300 models x 24 samples x 32 features is larger than numpy's
    # 8192-element iterator buffer; a sample of models is checked.
    stack, labels, seeds = fixed_stack(300, 24, 32, 8, seed=6)
    models = [LogisticClassifier(seed) for seed in seeds]
    LogisticClassifier.fit_levels(models, stack, labels)
    for level in (0, 1, 57, 150, 298, 299):
        reference = ReferenceLogistic(seeds[level]).fit(stack[level], labels)
        assert models[level].model_digest() == reference.model_digest()


# Examples: one model; 9 and 12 classes; duplicated rows (distance and
# centroid ties); negative, unsorted labels; windows meeting at an error
# equal to the tolerance; totals no window reaches (UNMATCHED); and one
# feature (which the exact matcher, reading feature 1, cannot take),
# where a centroid over 12 rows rounds by its rows' memory layout.
@pytest.mark.parametrize("name", ["exact", "centroid", "knn"])
@settings(max_examples=60, deadline=None)
@given(case=level_stacks())
@example(case=fixed_stack(1, 12, 32, 6, seed=1))
@example(case=fixed_stack(3, 11, 5, 9, seed=5))
@example(case=fixed_stack(4, 30, 32, 12, seed=8))
@example(case=duplicated_rows(3, 32, [0, 1], seed=9))
@example(case=duplicated_rows(2, 5, [9, -4, 2], seed=10))
@example(case=(
    np.random.default_rng(11).integers(0, 3_000, size=(3, 8, 6)),
    [7, -3, 2, -3, 7, 2, -50, 7], [1, 2, 3],
))
@example(case=exact_window_edges())
@example(case=(np.full((2, 4, 3), 10**6), [1, 0, 1, 0], [0, 1]))
@example(case=fixed_stack(6, 10, 1, 3, seed=3))
@example(case=fixed_stack(2, 24, 1, 2, seed=12))
def test_stacked_classifier_matches_one_model_reference(name, case):
    stack, _, _ = case
    assume(name != "exact" or stack.shape[2] >= 2)
    assert_stack_matches_reference(name, case)


@pytest.mark.parametrize("max_objects", [6, 12])
def test_real_shard_group_matches_one_model_fits(max_objects):
    # The frontier digests count correct predictions, so a stacked fit
    # that moves a model's last bits passes them unless a prediction
    # flips.  Here 12 sessions with max_objects classes each are
    # observed and stacked as evaluate_sessions stacks a group, at the
    # suite's shape (reps 2, 6 classes) and at 12 classes, and every
    # model is compared with its one-model fit: no pinned digests,
    # since einsum's summation order may differ between numpy builds.
    design = dataclasses.replace(
        InferCampaignConfig().design(), max_objects=max_objects
    )
    workload = PopulationWorkload(design.seed, design.population)
    levels = [defense_level(name) for name in design.levels]
    pages = {}
    session = 0
    while len(pages) < 12:
        sizes = workload.page_spec(session).object_sizes[:max_objects]
        if len(sizes) == max_objects:
            pages[session] = sizes
        session += 1
    stack = np.concatenate([
        _observe_session(member, sizes, levels, design)[1]
        for member, sizes in pages.items()
    ])
    labels = np.repeat(np.arange(max_objects), design.reps)
    train, victims = stack[:, : len(labels)], stack[:, len(labels):]
    for name in design.classifiers:
        kind, reference_kind = REFERENCES[name]
        seeds = [
            counter_stream_base(
                design.seed, f"infer/clf/{level.name}/s{member}/{name}"
            )
            for member in pages
            for level in levels
        ]
        models = [kind(seed) for seed in seeds]
        kind.fit_levels(models, train, labels)
        predictions = kind.predict_levels(models, victims)
        for model, seed, features, probes, predicted in zip(
            models, seeds, train, victims, predictions
        ):
            alone = kind(seed).fit(features, labels)
            reference = reference_kind(seed).fit(features, labels)
            assert model.model_digest() == alone.model_digest(), name
            assert alone.model_digest() == reference.model_digest(), name
            assert predicted == alone.predict(probes) == reference.predict(probes)


@pytest.mark.parametrize("name", classifier_names())
def test_fit_levels_equals_fitting_each_level(name):
    rows, labels = _toy_data(classes=4)
    stack = np.stack([np.asarray(rows), np.asarray(rows) * 3 + 11])
    models = [resolve_classifier(name, seed) for seed in (4, 9)]
    kind = type(models[0])
    kind.fit_levels(models, stack, labels)
    predictions = kind.predict_levels(models, stack[::-1])
    for model, features, probes, predicted in zip(
        models, stack, stack[::-1], predictions
    ):
        alone = resolve_classifier(name, model.seed).fit(features, labels)
        assert model.model_digest() == alone.model_digest()
        assert predicted == alone.predict(probes)
    with pytest.raises(ValueError):
        kind.fit_levels(models[:1], stack, labels)
    with pytest.raises(ValueError):
        kind.predict_levels(models[:1], stack)


class MajorityClassifier(Classifier):
    """A plug-in with only the one-model methods: the commonest label."""

    name = "majority"

    def fit(self, features, labels):
        values, counts = np.unique(np.asarray(labels), return_counts=True)
        self._label = int(values[counts.argmax()])
        return self

    def predict(self, features):
        return [self._label] * len(features)

    def _parameter_arrays(self):
        return [np.asarray([self._label])]


def test_plugged_in_classifier_runs_through_the_default_loops(monkeypatch):
    # A registered classifier that implements only fit/predict gets the
    # default fit_levels/predict_levels loops, in a shard as alone.
    monkeypatch.setitem(CLASSIFIER_REGISTRY, "majority", MajorityClassifier)
    design = StudyDesign(reps=2, max_objects=4, classifiers=("majority",))
    for result in evaluate_sessions([0, 1, 2], design):
        for entry in result["levels"].values():
            # Ties go to label 0, and one victim per object is label 0.
            assert entry["classifiers"] == {"majority": 1}
    rows, labels = _toy_data()
    stack = np.stack([np.asarray(rows)] * 2)
    models = [MajorityClassifier(seed) for seed in (1, 2)]
    MajorityClassifier.fit_levels(models, stack, labels)
    assert MajorityClassifier.predict_levels(models, stack) == [
        model.predict(rows) for model in models
    ]
    with pytest.raises(ValueError):
        MajorityClassifier.predict_levels(models[:1], stack)


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
