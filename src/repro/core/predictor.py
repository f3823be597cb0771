"""The object prediction module: size → identity.

The adversary holds a pre-compiled map of object identities to body
sizes (paper §V: "a pre-compiled list of image size to political party
mapping").  On-wire estimates measure TLS ciphertext, so the predictor
models the framing overhead analytically — DATA chunking, HTTP/2 frame
headers, TLS record headers and AEAD expansion — to convert a known
body size into its expected on-wire payload, then nearest-matches
estimates against expectations.

A small from-scratch k-nearest-neighbour classifier is included for
feature-based variants (size + duration), standing in for the paper's
mention of off-the-shelf ML classifiers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.assignment import linear_sum_assignment

if TYPE_CHECKING:
    import numpy as np

    from repro.core.estimator import ObjectEstimate

#: HTTP/2 frame header octets.
FRAME_HEADER = 9
#: TLS record header + AEAD expansion (TLS 1.2 GCM) per record.
RECORD_OVERHEAD = 29
#: Typical response HEADERS frame wire size (status line + the header
#: fields of repro.h2.server.H2Server.response_headers, HPACK-coded).
RESPONSE_HEADERS_WIRE = 120

#: Default server DATA chunking granularity the adversary calibrates.
DEFAULT_CHUNK_BYTES = 2048


def expected_wire_payload(
    body_bytes: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> int:
    """Expected on-wire TCP payload of one serialized response.

    The framing model shared by :class:`SizePredictor` and the
    campaign engine's analytic evaluator: DATA chunking, HTTP/2 frame
    headers, TLS record overhead, plus the response HEADERS frame.
    """
    frames = max(1, math.ceil(body_bytes / chunk_bytes))
    data_wire = body_bytes + frames * (FRAME_HEADER + RECORD_OVERHEAD)
    return data_wire + RESPONSE_HEADERS_WIRE


#: Cost of an out-of-tolerance candidate/estimate pair: large enough
#: that the assignment takes one only when nothing else is left, and
#: filtered out of the result.
_OUT_OF_TOLERANCE = 1e12


def _matched_pairs(cost: List[List[float]]) -> List[Tuple[int, int]]:
    """A minimum-cost assignment's in-tolerance ``(row, column)`` pairs."""
    rows, cols = linear_sum_assignment(cost)
    return [
        (row, col)
        for row, col in zip(rows, cols)
        if cost[row][col] < _OUT_OF_TOLERANCE
    ]


@dataclass(frozen=True)
class Match:
    """One classification outcome."""

    object_id: str
    expected_payload: int
    observed_payload: int

    @property
    def error(self) -> int:
        return abs(self.observed_payload - self.expected_payload)


class SizePredictor:
    """Matches wire-size estimates against a known object inventory."""

    def __init__(
        self,
        size_map: Dict[str, int],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        tolerance_abs: int = 350,
        tolerance_rel: float = 0.05,
    ) -> None:
        """
        Args:
            size_map: object_id → body size in bytes (adversary prior).
            chunk_bytes: the server's DATA chunking granularity, which
                the adversary calibrates offline by fetching known
                objects itself.
            tolerance_abs / tolerance_rel: a match requires the error
                to be within ``max(tolerance_abs, tolerance_rel *
                expected)``.
        """
        if not size_map:
            raise ValueError("size map must not be empty")
        self.size_map = dict(size_map)
        self.chunk_bytes = chunk_bytes
        self.tolerance_abs = tolerance_abs
        self.tolerance_rel = tolerance_rel
        self._expected = {
            object_id: self.expected_payload(body)
            for object_id, body in self.size_map.items()
        }

    def expected_payload(self, body_bytes: int) -> int:
        """Expected on-wire TCP payload of a serialized response."""
        return expected_wire_payload(body_bytes, self.chunk_bytes)

    def expected_for(self, object_id: str) -> int:
        """Expected payload for a known object.

        Raises:
            KeyError: for unknown object ids.
        """
        return self._expected[object_id]

    def _within_tolerance(self, observed: int, expected: int) -> bool:
        budget = max(self.tolerance_abs, self.tolerance_rel * expected)
        return abs(observed - expected) <= budget

    def classify(
        self,
        estimate: ObjectEstimate,
        candidates: Optional[Sequence[str]] = None,
    ) -> Optional[Match]:
        """Best in-tolerance match for one estimate, or None."""
        pool = candidates if candidates is not None else list(self._expected)
        best: Optional[Match] = None
        for object_id in pool:
            expected = self._expected[object_id]
            if not self._within_tolerance(estimate.payload_bytes, expected):
                continue
            match = Match(object_id, expected, estimate.payload_bytes)
            if best is None or match.error < best.error:
                best = match
        return best

    def find_object(
        self,
        estimates: Sequence[ObjectEstimate],
        object_id: str,
    ) -> Optional[ObjectEstimate]:
        """The estimate best matching a specific target object."""
        expected = self._expected[object_id]
        best: Optional[ObjectEstimate] = None
        best_error = None
        for estimate in estimates:
            if not self._within_tolerance(estimate.payload_bytes, expected):
                continue
            error = abs(estimate.payload_bytes - expected)
            if best_error is None or error < best_error:
                best, best_error = estimate, error
        return best

    def predict_sequence_assignment(
        self,
        estimates: Sequence[ObjectEstimate],
        candidates: Sequence[str],
    ) -> List[Tuple[ObjectEstimate, Match]]:
        """Recover the candidate order via minimum-cost assignment.

        Each candidate (emblem image) was served exactly once in the
        analysis window, but the window also contains junk bursts —
        other re-served objects, duplicate servings from retransmitted
        requests — some of which coincidentally land near a candidate's
        size.  The prediction module therefore solves a minimum-cost
        bipartite assignment (:mod:`repro.core.assignment`) between expected
        candidate sizes and observed bursts, restricted to in-tolerance
        pairs, and reads the order off the chosen bursts' timestamps.

        The candidates were requested back to back (paper assumption 5)
        and the attack serializes them, so the true transmissions form
        a *dense window* containing all candidate sizes exactly once.
        The module slides a window over the trace, scores each position
        by how many distinct candidates an in-window assignment covers
        (ties: lower total size error, then later window), and solves
        the assignment inside the best window.

        Returns (estimate, match) pairs in temporal order; candidates
        with no in-tolerance burst are absent.
        """
        ordered = sorted(estimates, key=lambda e: e.start_time)
        if not ordered:
            return []
        pool = list(candidates)

        cost = self._cost_matrix(ordered, pool)
        lo, pairs = self._sequence_window(ordered, cost)
        assignment = [
            (ordered[lo + col], Match(
                pool[row],
                self._expected[pool[row]],
                ordered[lo + col].payload_bytes,
            ))
            for row, col in pairs
        ]
        assignment.sort(key=lambda pair: pair[0].start_time)
        return assignment

    def _sequence_window(
        self,
        ordered: Sequence[ObjectEstimate],
        cost: List[List[float]],
        window_seconds: float = 2.5,
        step_seconds: float = 0.25,
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """The window of estimates best covering all candidates.

        ``ordered`` is sorted by start time, so the estimates a window
        position holds (``position <= start_time <= position +
        window_seconds``) are one slice of it, and of ``cost``'s
        columns.  Each distinct slice is solved once.  Returns the
        best slice's first index and its in-tolerance ``(row, column)``
        pairs, columns counted from that index.
        """
        starts = [estimate.start_time for estimate in ordered]
        end = starts[-1]
        solved: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # The first position's window holds ordered[0], so it always
        # replaces this seed.
        best: Tuple[int, int] = (0, 1)
        best_score: Tuple[int, float, float] = (-1, 0.0, 0.0)
        position = starts[0]
        while True:
            lo = bisect_left(starts, position)
            hi = bisect_right(starts, position + window_seconds)
            if lo < hi:
                pairs = solved.get((lo, hi))
                if pairs is None:
                    window_cost = [row[lo:hi] for row in cost]
                    pairs = solved[(lo, hi)] = _matched_pairs(window_cost)
                total_error = sum(cost[row][lo + col] for row, col in pairs)
                score = (len(pairs), -total_error, position)
                if score > best_score:
                    best_score = score
                    best = (lo, hi)
            if position > end:
                break
            position += step_seconds
        return best[0], solved[best]

    def _cost_matrix(
        self,
        estimates: Sequence[ObjectEstimate],
        pool: Sequence[str],
    ) -> List[List[float]]:
        """Candidate × estimate size errors; out-of-tolerance pairs cost
        :data:`_OUT_OF_TOLERANCE`."""
        cost = []
        for object_id in pool:
            expected = self._expected[object_id]
            cost.append([
                abs(estimate.payload_bytes - expected)
                if self._within_tolerance(estimate.payload_bytes, expected)
                else _OUT_OF_TOLERANCE
                for estimate in estimates
            ])
        return cost


class NearestNeighborClassifier:
    """A minimal k-NN classifier (numpy-only).

    Features are standardized per dimension; prediction is the majority
    label among the k nearest training points (Euclidean distance).
    """

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._features: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(
        self, features: Sequence[Sequence[float]], labels: Sequence[str]
    ) -> "NearestNeighborClassifier":
        """Store the training set (standardizing features)."""
        import numpy as np

        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2 or len(matrix) != len(labels):
            raise ValueError("features must be 2-D and aligned with labels")
        if len(matrix) < self.k:
            raise ValueError("need at least k training points")
        self._mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._features = (matrix - self._mean) / self._scale
        self._labels = np.asarray(labels)
        return self

    def predict(self, features: Sequence[Sequence[float]]) -> List[str]:
        """Majority-vote labels for each query point."""
        import numpy as np

        if self._features is None:
            raise RuntimeError("classifier not fitted")
        queries = (np.asarray(features, dtype=float) - self._mean) / self._scale
        predictions = []
        for query in queries:
            distances = np.linalg.norm(self._features - query, axis=1)
            nearest = np.argsort(distances, kind="stable")[: self.k]
            values, counts = np.unique(self._labels[nearest], return_counts=True)
            predictions.append(str(values[np.argmax(counts)]))
        return predictions

    def score(
        self, features: Sequence[Sequence[float]], labels: Sequence[str]
    ) -> float:
        """Accuracy on a labelled set."""
        predictions = self.predict(features)
        hits = sum(1 for p, t in zip(predictions, labels) if p == t)
        return hits / len(labels)

    def margin(
        self, features: Sequence[Sequence[float]], positive_label: str
    ) -> List[float]:
        """Per-query decision margin toward ``positive_label``.

        Defined as (distance to the nearest other-class point) minus
        (distance to the nearest positive point): larger is more
        confidently positive.
        """
        import numpy as np

        if self._features is None:
            raise RuntimeError("classifier not fitted")
        queries = (np.asarray(features, dtype=float) - self._mean) / self._scale
        positive_mask = self._labels == positive_label
        if not positive_mask.any() or positive_mask.all():
            raise ValueError("need both classes for a margin")
        positives = self._features[positive_mask]
        negatives = self._features[~positive_mask]
        margins = []
        for query in queries:
            to_positive = np.linalg.norm(positives - query, axis=1).min()
            to_negative = np.linalg.norm(negatives - query, axis=1).min()
            margins.append(float(to_negative - to_positive))
        return margins
