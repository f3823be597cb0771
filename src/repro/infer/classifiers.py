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
the interface also has the classmethod ``fit_levels(models, stack,
labels)``, which fits ``models[m]`` on ``stack[m]``.  Its default
loops ``fit``.  The logistic model overrides it to train the whole
stack as one array program over the (model, sample, feature) stack,
where the model axis spans sessions × levels, and its ``fit`` is the
one-model case of that program.

Determinism contract:

* a classifier is constructed from an integer seed only; fitting the
  same data with the same seed yields a bit-identical model (pinned by
  ``model_digest()``, a SHA-256 over the canonical parameter bytes),
  whether the model is fit alone or stacked with the other levels and
  sessions of its shard;
* every matrix product goes through ``np.einsum`` rather than BLAS
  ``dot`` — einsum's fixed-order reduction loops are reproducible
  across numpy builds, where a threaded BLAS dgemm need not be.  The
  stacked logistic fit keeps the model axis ``l`` (sessions × levels)
  innermost in both operands of its two products, so every output
  element accumulates its contracted index sequentially, in the order
  of the one-model ``nf,fc->nc`` and ``nf,nc->fc``, and every other
  reduction runs over the sample or class axis of one model, laid out
  as in the one-model loop.  So a model's floats do not depend on what
  is stacked beside it, or on how many.  The tests pin stacks of up to
  300 models against the one-model loop, and a shard against its
  sessions fit one at a time;
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
        """Fit ``models[l]`` on the feature matrix ``stack[l]``.

        Every model trains on the same ``labels``.  The default fits
        each model in turn; a subclass may fit the whole stack at once,
        provided each model ends bit-identical to its own ``fit``.
        """
        for model, features in zip(models, stack, strict=True):
            model.fit(features, labels)

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


def _as_matrix(features: Sequence[Sequence[int]]) -> np.ndarray:
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("features must be a 2-D batch of vectors")
    return matrix


def _standardize_stats(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column mean and scale over the sample axis (``-2``).

    Takes one (N, F) matrix or an (L, N, F) stack of them; a column of
    zero variance gets scale 1.
    """
    mean = matrix.mean(axis=-2)
    centered = matrix - mean[..., None, :]
    scale = np.sqrt((centered * centered).mean(axis=-2))
    scale[scale == 0.0] = 1.0
    return mean, scale


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, (len(a), len(b)).

    Computed from the explicit differences instead of the usual
    ``|a|² + |b|² - 2ab`` BLAS trick: each entry is one ``np.einsum``
    inner product of a difference row with itself.  einsum contracts
    that contiguous row with its own multi-accumulator kernel, so the
    sum follows neither ``np.sum``'s pairwise order nor a left-to-right
    loop; it is fixed for a given numpy and input shape, so the same
    data gives the same distances on every run and worker.
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


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
    """

    name = "exact"
    TOLERANCE_ABS = 350
    TOLERANCE_PERMILLE = 50  # 5 %

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._labels: List[int] = []
        self._totals: List[int] = []

    def fit(self, features, labels) -> "ExactMatchClassifier":
        per_label: Dict[int, List[int]] = {}
        for vector, label in zip(features, labels):
            per_label.setdefault(int(label), []).append(int(vector[1]))
        self._labels = sorted(per_label)
        self._totals = []
        for label in self._labels:
            totals = sorted(per_label[label])
            # Lower median keeps the parameter an exact integer.
            self._totals.append(totals[(len(totals) - 1) // 2])
        return self

    def predict(self, features) -> List[int]:
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

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [
            np.asarray(self._labels, dtype=np.int64),
            np.asarray(self._totals, dtype=np.int64),
        ]


class NearestCentroidClassifier(Classifier):
    """Per-class mean in standardized feature space; nearest wins."""

    name = "centroid"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._labels = np.zeros(0, dtype=np.int64)
        self._mean = np.zeros(0)
        self._scale = np.ones(0)
        self._centroids = np.zeros((0, 0))

    def fit(self, features, labels) -> "NearestCentroidClassifier":
        matrix = _as_matrix(features)
        label_array = np.asarray(labels, dtype=np.int64)
        self._mean, self._scale = _standardize_stats(matrix)
        scaled = (matrix - self._mean) / self._scale
        self._labels = np.unique(label_array)
        self._centroids = np.stack([
            scaled[label_array == label].mean(axis=0)
            for label in self._labels
        ])
        return self

    def predict(self, features) -> List[int]:
        scaled = (_as_matrix(features) - self._mean) / self._scale
        distances = _squared_distances(scaled, self._centroids)
        # argmin returns the first minimum; labels are sorted, so ties
        # break toward the smallest label.
        return [int(self._labels[i]) for i in distances.argmin(axis=1)]

    def _parameter_arrays(self) -> List[np.ndarray]:
        return [self._labels, self._mean, self._scale, self._centroids]


class KNNClassifier(Classifier):
    """k-nearest neighbours with fully deterministic tie-breaking.

    Neighbours order by ``(distance, training index)``; the vote winner
    is the label with the highest count, smallest label first.
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
        matrix = _as_matrix(features)
        self._mean, self._scale = _standardize_stats(matrix)
        self._train = (matrix - self._mean) / self._scale
        self._labels = np.asarray(labels, dtype=np.int64)
        return self

    def predict(self, features) -> List[int]:
        scaled = (_as_matrix(features) - self._mean) / self._scale
        distances = _squared_distances(scaled, self._train)
        k = min(self.K, len(self._labels))
        order_index = np.arange(len(self._labels))
        predictions = []
        for row in distances:
            order = np.lexsort((order_index, row))
            votes: Dict[int, int] = {}
            for neighbour in order[:k]:
                label = int(self._labels[neighbour])
                votes[label] = votes.get(label, 0) + 1
            predictions.append(
                min(votes, key=lambda label: (-votes[label], label))
            )
        return predictions

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
        self.fit_levels([self], _as_matrix(features)[None], labels)
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
        # A float copy of the stack, standardized in place.
        scaled = np.array(stack, dtype=np.float64)
        if scaled.ndim != 3 or len(scaled) != len(models):
            raise ValueError("stack must hold one 2-D feature batch per model")
        mean, scale = _standardize_stats(scaled)
        scaled -= mean[:, None]
        scaled /= scale[:, None]
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
        scaled = (_as_matrix(features) - self._mean) / self._scale
        logits = np.einsum("nf,fc->nc", scaled, self._weights) + self._bias
        # argmax takes the first maximum; labels are sorted.
        return [int(self._labels[i]) for i in logits.argmax(axis=1)]

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
