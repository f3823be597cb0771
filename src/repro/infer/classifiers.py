"""Pluggable object classifiers behind a registry.

Each classifier consumes the integer feature vectors of
:mod:`repro.infer.features` and implements ``fit`` / ``predict`` /
``model_digest``.  Three statistical models (nearest-centroid, k-NN,
multinomial logistic) are implemented directly in numpy — no new
runtime dependencies — alongside the paper's exact-match baseline,
so the frontier table compares the attack the paper ran against the
attack it did not.

An infer shard fits one model per (session, defense level), and every
session with the same number of objects trains on the same labels, so
the interface also has the classmethods ``fit_levels(models, stack,
labels)``, which fits ``models[m]`` on ``stack[m]``, and
``predict_levels(models, stack)``, which predicts ``stack[m]`` with
``models[m]``.  Their defaults loop ``fit`` and ``predict``, so a
registered classifier needs only those two.  The four built-in models
override ``fit_levels`` to fit the whole stack as one array program
over the (model, sample, feature) stack, where the model axis spans
sessions × levels, and the exact, centroid and k-NN models override
``predict_levels`` the same way.  A model's ``fit`` (and, where
``predict_levels`` is stacked, its ``predict``) is the one-model case
of that program.

Determinism contract:

* a classifier is constructed from an integer seed only; fitting the
  same data with the same seed yields a bit-identical model (pinned by
  ``model_digest()``, a SHA-256 over the canonical parameter bytes),
  whether the model is fit alone or stacked with the other levels and
  sessions of its shard, and it predicts the same labels either way;
* every matrix product goes through ``np.einsum`` rather than BLAS
  ``dot`` — einsum's fixed-order reduction loops are reproducible
  across numpy builds, where a threaded BLAS dgemm need not be.  The
  stacked logistic fit keeps the model axis ``l`` (sessions × levels)
  innermost in both operands of its two products, so every output
  element accumulates its contracted index sequentially, in the order
  of the one-model ``nf,fc->nc`` and ``nf,nc->fc``, and every other
  reduction runs over the sample or class axis of one model, laid out
  as in the one-model loop.  The distances of the centroid and k-NN
  models contract the contiguous feature axis of one model's
  difference rows, whatever is stacked beside it.  So a model's floats
  do not depend on what is stacked beside it, or on how many.  The
  tests pin stacks against the one-model code each stacked method
  replaced, and a shard against its sessions fit one at a time;
* ties break toward the smallest label everywhere.

Registering a new classifier::

    @register_classifier("myclf")
    def _build(seed: int) -> Classifier:
        return MyClassifier(seed)
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.simkernel.randomstream import CounterStream, uniform

#: Label returned by the exact-match baseline when nothing matches
#: within tolerance — always counted as a miss.
UNMATCHED = -1


class Classifier:
    """Fit/predict interface over integer feature vectors."""

    name = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def fit(
        self, features: Sequence[Sequence[int]], labels: Sequence[int]
    ) -> "Classifier":
        raise NotImplementedError

    def predict(self, features: Sequence[Sequence[int]]) -> List[int]:
        raise NotImplementedError

    @classmethod
    def fit_levels(
        cls,
        models: Sequence["Classifier"],
        stack: Sequence[Sequence[Sequence[int]]],
        labels: Sequence[int],
    ) -> None:
        """Fit ``models[m]`` on the feature matrix ``stack[m]``.

        Every model trains on the same ``labels``.  The default fits
        each model in turn; a subclass may fit the whole stack at once,
        provided each model ends bit-identical to its own ``fit``.

        Raises:
            ValueError: ``models`` and ``stack`` differ in length.
        """
        for model, features in zip(models, stack, strict=True):
            model.fit(features, labels)

    @classmethod
    def predict_levels(
        cls,
        models: Sequence["Classifier"],
        stack: Sequence[Sequence[Sequence[int]]],
    ) -> List[List[int]]:
        """Predict the feature matrix ``stack[m]`` with ``models[m]``.

        Returns one prediction list per model.  The default predicts
        with each model in turn; a subclass may predict the whole stack
        at once, provided every list equals its model's own
        ``predict``.  The stacked overrides take models whose
        parameters share their shapes, as the models of one
        :meth:`fit_levels` call do.

        Raises:
            ValueError: ``models`` and ``stack`` differ in length.
        """
        return [
            model.predict(features)
            for model, features in zip(models, stack, strict=True)
        ]

    def model_digest(self) -> str:
        """SHA-256 over the canonical bytes of the fitted parameters."""
        digest = hashlib.sha256()
        digest.update(f"{self.name}|seed={self.seed}".encode("utf-8"))
        for array in self._parameter_arrays():
            arr = np.ascontiguousarray(array)
            digest.update(
                f"|{arr.dtype.str}{arr.shape}".encode("utf-8")
            )
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def _parameter_arrays(self) -> List[np.ndarray]:
        raise NotImplementedError


def _model_stack(models: Sequence[Classifier], stack) -> np.ndarray:
    """``stack`` as an array of one 2-D feature batch per model."""
    array = np.asarray(stack)
    if array.ndim != 3 or len(array) != len(models):
        raise ValueError("stack must hold one 2-D feature batch per model")
    return array


def _standardized(
    models: Sequence[Classifier], stack
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A float copy of the stack, each model's batch standardized in place.

    Returns the (L, N, F) copy and its (L, F) per-column mean and scale
    over the sample axis; a column of zero variance gets scale 1.
    """
    scaled = _model_stack(models, stack).astype(np.float64)
    mean = scaled.mean(axis=1)
    scaled -= mean[:, None]
    scale = np.sqrt((scaled * scaled).mean(axis=1))
    scale[scale == 0.0] = 1.0
    scaled /= scale[:, None]
    return scaled, mean, scale


def _scaled_for(models: Sequence[Classifier], stack) -> np.ndarray:
    """A float copy of ``stack[m]`` in ``models[m]``'s standardized space."""
    scaled = _model_stack(models, stack).astype(np.float64)
    scaled -= np.stack([model._mean for model in models])[:, None]
    scaled /= np.stack([model._scale for model in models])[:, None]
    return scaled


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, model by model: (M, V, P).

    ``a`` is (M, V, F) and ``b`` is (M, P, F); entry ``[m, v, p]`` is
    the distance from ``a[m, v]`` to ``b[m, p]``.  Computed from the
    explicit differences instead of the usual ``|a|² + |b|² - 2ab``
    BLAS trick: each entry is one ``np.einsum`` inner product of a
    difference row with itself.  einsum contracts that contiguous row
    with its own multi-accumulator kernel, so the sum follows neither
    ``np.sum``'s pairwise order nor a left-to-right loop; it is fixed
    for a given numpy and row length, however many models are stacked,
    so the same data gives the same distances on every run and worker.

    One row of ``a`` at a time, into one C-contiguous (M, P, F)
    difference buffer: all V rows at once would be V times as large.
    """
    distances = np.empty((a.shape[0], a.shape[1], b.shape[1]))
    diff = np.empty(b.shape)
    for row in range(a.shape[1]):
        np.subtract(a[:, row, None], b, out=diff)
        distances[:, row] = np.einsum("mpf,mpf->mp", diff, diff)
    return distances


class ExactMatchClassifier(Classifier):
    """The paper's baseline: near-exact total-size matching.

    Fit records the integer median observed total (feature index 1) per
    label; predict matches an observation to the label whose recorded
    total is closest, *if* within ``max(tolerance_abs, 5 % of the
    recorded total)`` — the tolerance rule of
    :class:`repro.core.predictor.SizePredictor` — and to
    :data:`UNMATCHED` otherwise.  Multiplexing contamination pushes
    observed totals outside that band, which is exactly the weakness
    the statistical classifiers exploit.

    Fit and predict run over a whole stack of models in integer
    arithmetic (:meth:`fit_levels`, :meth:`predict_levels`); ``fit``
    and ``predict`` are their one-model case.
    """

    name = "exact"
    TOLERANCE_ABS = 350
    TOLERANCE_PERMILLE = 50  # 5 %

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._labels = np.zeros(0, dtype=np.int64)
        self._totals = np.zeros(0, dtype=np.int64)

    def fit(self, features, labels) -> "ExactMatchClassifier":
        self.fit_levels([self], [features], labels)
        return self

    @classmethod
    def fit_levels(cls, models, stack, labels) -> None:
        """Fit ``models[m]`` on ``stack[m]``, all models at once.

        A model's total for a label is the lower median of feature 1
        over that label's rows, one sort along the sample axis per
        label for the whole stack; labels sort ascending.
        """
        observed = _model_stack(models, stack)[..., 1].astype(np.int64)
        label_array = np.asarray(labels, dtype=np.int64)
        classes = np.unique(label_array)
        totals = np.empty((len(models), len(classes)), dtype=np.int64)
        for column, label in enumerate(classes):
            rows = np.sort(observed[:, label_array == label], axis=1)
            # Lower median keeps the parameter an exact integer.
            totals[:, column] = rows[:, (rows.shape[1] - 1) // 2]
        for level, model in enumerate(models):
            model._labels, model._totals = classes, totals[level]

    def predict(self, features) -> List[int]:
        return self.predict_levels([self], [features])[0]

    @classmethod
    def predict_levels(cls, models, stack) -> List[List[int]]:
        """Predict ``stack[m]`` with ``models[m]``, all models at once.

        ``|observed − total|`` over (model, victim, label) in int64; a
        label outside its tolerance window is masked, the first minimum
        in ascending label order wins, and a victim with no label in
        its window gets :data:`UNMATCHED`.
        """
        observed = _model_stack(models, stack)[..., 1].astype(np.int64)
        totals = np.stack([model._totals for model in models])
        tolerance = np.maximum(
            cls.TOLERANCE_ABS, cls.TOLERANCE_PERMILLE * totals // 1000
        )
        error = np.abs(observed[:, :, None] - totals[:, None])
        outside = error > tolerance[:, None]
        # Errors inside a window are at most the tolerance, below this.
        error[outside] = np.iinfo(np.int64).max
        labels = np.stack([model._labels for model in models])
        predictions = np.take_along_axis(labels, error.argmin(axis=2), axis=1)
        predictions[outside.all(axis=2)] = UNMATCHED
        return predictions.tolist()

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [self._labels, self._totals]


class NearestCentroidClassifier(Classifier):
    """Per-class mean in standardized feature space; nearest wins.

    Fit and predict run over a whole stack of models
    (:meth:`fit_levels`, :meth:`predict_levels`); ``fit`` and
    ``predict`` are their one-model case.
    """

    name = "centroid"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._labels = np.zeros(0, dtype=np.int64)
        self._mean = np.zeros(0)
        self._scale = np.ones(0)
        self._centroids = np.zeros((0, 0))

    def fit(self, features, labels) -> "NearestCentroidClassifier":
        self.fit_levels([self], [features], labels)
        return self

    @classmethod
    def fit_levels(cls, models, stack, labels) -> None:
        """Fit ``models[m]`` on ``stack[m]``, bit-identical to its ``fit``.

        The stack is standardized in one float copy, and each label's
        centroids are means along the sample axis of that label's rows,
        gathered into a C-contiguous (L, rows, F) array, so numpy sums
        each model's rows as it sums one model's own (rows, F) matrix.
        """
        scaled, mean, scale = _standardized(models, stack)
        label_array = np.asarray(labels, dtype=np.int64)
        classes = np.unique(label_array)
        # ``scaled[:, mask]`` would lay the rows out model-innermost,
        # and a one-feature mean over 9 or more rows then rounds
        # differently.
        centroids = np.stack([
            np.compress(label_array == label, scaled, axis=1).mean(axis=1)
            for label in classes
        ], axis=1)
        for level, model in enumerate(models):
            model._labels = classes
            model._mean, model._scale = mean[level], scale[level]
            model._centroids = centroids[level]

    def predict(self, features) -> List[int]:
        return self.predict_levels([self], [features])[0]

    @classmethod
    def predict_levels(cls, models, stack) -> List[List[int]]:
        """Predict ``stack[m]`` with ``models[m]``, all models at once."""
        distances = _squared_distances(
            _scaled_for(models, stack),
            np.stack([model._centroids for model in models]),
        )
        labels = np.stack([model._labels for model in models])
        # argmin returns the first minimum; labels are sorted, so ties
        # break toward the smallest label.
        return np.take_along_axis(
            labels, distances.argmin(axis=2), axis=1
        ).tolist()

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [self._labels, self._mean, self._scale, self._centroids]


class KNNClassifier(Classifier):
    """k-nearest neighbours with fully deterministic tie-breaking.

    Neighbours order by ``(distance, training index)``; the vote winner
    is the label with the highest count, smallest label first.  Fit and
    predict run over a whole stack of models (:meth:`fit_levels`,
    :meth:`predict_levels`); ``fit`` and ``predict`` are their
    one-model case.
    """

    name = "knn"
    K = 3

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._mean = np.zeros(0)
        self._scale = np.ones(0)
        self._train = np.zeros((0, 0))
        self._labels = np.zeros(0, dtype=np.int64)

    def fit(self, features, labels) -> "KNNClassifier":
        self.fit_levels([self], [features], labels)
        return self

    @classmethod
    def fit_levels(cls, models, stack, labels) -> None:
        """Standardize ``stack[m]`` as ``models[m]``'s training rows."""
        scaled, mean, scale = _standardized(models, stack)
        label_array = np.asarray(labels, dtype=np.int64)
        for level, model in enumerate(models):
            model._mean, model._scale = mean[level], scale[level]
            model._train, model._labels = scaled[level], label_array

    def predict(self, features) -> List[int]:
        return self.predict_levels([self], [features])[0]

    @classmethod
    def predict_levels(cls, models, stack) -> List[List[int]]:
        """Predict ``stack[m]`` with ``models[m]``, all models at once.

        A stable sort of each victim's distances keeps equal distances
        in training-index order.  The vote counts, for each of the k
        neighbours, the neighbours that share its label; the winner is
        the smallest label among those with the most votes, for any
        label values.
        """
        distances = _squared_distances(
            _scaled_for(models, stack),
            np.stack([model._train for model in models]),
        )
        labels = np.stack([model._labels for model in models])
        k = min(cls.K, labels.shape[1])
        nearest = np.argsort(distances, axis=2, kind="stable")[..., :k]
        votes = np.take_along_axis(labels[:, None], nearest, axis=2)
        counts = (votes[..., :, None] == votes[..., None, :]).sum(axis=3)
        leaders = np.where(
            counts == counts.max(axis=2, keepdims=True),
            votes, np.iinfo(np.int64).max,
        )
        return leaders.min(axis=2).tolist()

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [self._mean, self._scale, self._train, self._labels]


class LogisticClassifier(Classifier):
    """Multinomial logistic regression, fixed-iteration full-batch GD.

    Weights initialise from the classifier's seeded
    :class:`~repro.simkernel.randomstream.CounterStream` draws, computed
    in one array pass (so the seed genuinely enters the model), then
    take ``EPOCHS`` deterministic gradient steps.

    :meth:`fit_levels` trains L models on the same labels as one
    stacked program over an (L, N, F) feature stack, L spanning a
    shard's sessions × levels: standardization per model, each model's
    initial weights from its own seed, one one-hot matrix shared by all
    models, and one epoch loop of batched einsum products with the
    softmax reductions over the class axis.  :meth:`fit` is its
    one-model case, so there is one gradient-descent loop.  The loop
    runs in the array layouts its :meth:`fit_levels` docstring names,
    chosen so every sum adds its terms in the order of the one-model
    loop — same floats on every run and worker, alone or stacked.
    """

    name = "logistic"
    EPOCHS = 60
    LEARNING_RATE = 0.5
    INIT_SCALE = 0.01

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._mean = np.zeros(0)
        self._scale = np.ones(0)
        self._labels = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros((0, 0))
        self._bias = np.zeros(0)

    def fit(self, features, labels) -> "LogisticClassifier":
        self.fit_levels([self], [features], labels)
        return self

    @classmethod
    def fit_levels(cls, models, stack, labels) -> None:
        """Fit ``models[l]`` on ``stack[l]``, bit-identical to its ``fit``.

        The epoch loop holds the standardized features as (F, N, L),
        the weights as (C, F, L) and the softmax as a C-contiguous
        (L, N, C) array; the logits are ``fnl,cfl->lnc`` and the weight
        gradient is ``fnl,ncl->cfl`` over the error copied to
        (N, C, L), written straight into the weights' layout.

        The rule that keeps every model's floats equal to the one-model
        loop: in both einsum products the model axis is innermost in
        every operand and the contracted axis is contiguous in at most
        one of them (in neither while L > 1), so einsum adds each output
        element's terms in contracted-index order, as the one-model
        ``nf,fc->nc`` and ``nf,nc->fc`` do.  With the contracted axis
        contiguous in both operands (say ``lnf,lcf->lnc``), or with a
        BLAS ``@``, the sums round differently.  The class and sample
        sums reduce the C-contiguous (L, N, C) array, as the one-model
        loop reduces its (N, C) one: numpy sums a contiguous run of 8
        or more classes with 8 partial sums, so that layout is part of
        the rule.  The oracle tests, which compare against the
        one-model loop, are the proof.

        The inner loop of both products runs over the models, so a
        stack of fewer models than classes (one session's levels) runs
        short inner loops and fits slower than a class-innermost layout
        would; a shard's stacks are larger, and there this layout is
        the faster one.
        """
        scaled, mean, scale = _standardized(models, stack)
        # (F, N, L): the model axis innermost in both einsum operands.
        features = np.ascontiguousarray(scaled.transpose(2, 1, 0))
        del scaled
        label_array = np.asarray(labels, dtype=np.int64)
        classes, label_index = np.unique(label_array, return_inverse=True)
        one_hot = np.eye(len(classes))[label_index]

        # (C, F, L) for the whole loop, so the gradient lands in place.
        weights = np.stack([
            model._initial_weights(len(features), len(classes)).T
            for model in models
        ], axis=-1)
        bias = np.zeros((len(models), len(classes)))
        samples = float(len(label_array))
        for _ in range(cls.EPOCHS):
            # Logits, then probabilities, then the error, in place.
            error = np.ascontiguousarray(
                np.einsum("fnl,cfl->lnc", features, weights)
            )
            error += bias[:, None]
            error -= error.max(axis=2, keepdims=True)
            np.exp(error, out=error)
            error /= error.sum(axis=2, keepdims=True)
            error -= one_hot
            error /= samples
            gradient_w = np.einsum(
                "fnl,ncl->cfl",
                features, np.ascontiguousarray(error.transpose(1, 2, 0)),
            )
            gradient_w *= cls.LEARNING_RATE
            weights -= gradient_w
            bias -= cls.LEARNING_RATE * error.sum(axis=1)
        weights = np.ascontiguousarray(weights.transpose(2, 1, 0))
        for level, model in enumerate(models):
            model._mean, model._scale = mean[level], scale[level]
            model._labels = classes
            model._weights, model._bias = weights[level], bias[level]

    def _initial_weights(self, n_features: int, classes: int) -> np.ndarray:
        """Uniform weights in ±``INIT_SCALE`` from the seed's counter stream.

        Weight ``[f, c]`` is draw ``f * classes + c + 1`` — the order a
        row-major loop of ``CounterStream.random()`` calls draws in.
        """
        draws = np.arange(1, n_features * classes + 1, dtype=np.uint64)
        unit = uniform(np.uint64(CounterStream(self.seed).seed), draws)
        weights = (2.0 * unit - 1.0) * self.INIT_SCALE
        return weights.reshape(n_features, classes)

    def predict(self, features) -> List[int]:
        # argmax takes the first maximum; labels are sorted.
        logits = self._logits(features)
        return [int(self._labels[i]) for i in logits.argmax(axis=1)]

    def _logits(self, features) -> np.ndarray:
        """The (N, C) logits, by einsum: BLAS ``@`` rounds differently."""
        matrix = np.asarray(features, dtype=np.float64)
        scaled = (matrix - self._mean) / self._scale
        return np.einsum("nf,fc->nc", scaled, self._weights) + self._bias

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [
            self._labels, self._mean, self._scale,
            self._weights, self._bias,
        ]


#: name -> factory(seed); insertion order is presentation order.
CLASSIFIER_REGISTRY: Dict[str, Callable[[int], Classifier]] = {}


def register_classifier(
    name: str,
) -> Callable[[Callable[[int], Classifier]], Callable[[int], Classifier]]:
    """Class/factory decorator adding a classifier to the registry."""

    def wrap(factory: Callable[[int], Classifier]):
        if name in CLASSIFIER_REGISTRY:
            raise ValueError(f"classifier {name!r} already registered")
        CLASSIFIER_REGISTRY[name] = factory
        return factory

    return wrap


register_classifier("exact")(ExactMatchClassifier)
register_classifier("centroid")(NearestCentroidClassifier)
register_classifier("knn")(KNNClassifier)
register_classifier("logistic")(LogisticClassifier)


def classifier_names() -> Tuple[str, ...]:
    """Registered names, registry (presentation) order."""
    return tuple(CLASSIFIER_REGISTRY)


def resolve_classifier(name: str, seed: int = 0) -> Classifier:
    """Instantiate a registered classifier.

    Raises:
        ValueError: naming an unregistered classifier.
    """
    try:
        factory = CLASSIFIER_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown classifier {name!r}; registered: "
            f"{', '.join(CLASSIFIER_REGISTRY)}"
        ) from None
    return factory(seed)
