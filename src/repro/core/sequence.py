"""The end-to-end sequence attack and its scoring (Table II).

Combines the pieces: after a trial runs, the adversary's capture is
segmented into size estimates, matched against the pre-compiled size
map, and scored against ground truth using the paper's success
criterion —

    "We consider our attack to be successful only when the adversary is
    able to bring down the degree of multiplexing of the object of
    interest to 0% and identify it from the encrypted traffic."

Two scoring modes mirror Table II's two rows: *one object at a time*
(was this single object identified and non-multiplexed?) and *all
objects at a time* (in the temporally ordered labelling of the whole
stream, is this object predicted at its true position?).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import ObjectEstimate, SizeEstimator
from repro.core.metrics import MultiplexingReport
from repro.core.monitor import TrafficMonitor
from repro.core.predictor import Match, SizePredictor
from repro.web.isidewith import HTML_OBJECT_ID, IsideWithSite


@dataclass
class ObjectVerdict:
    """Per-object outcome of one trial.

    Attributes:
        object_id: the target object.
        identified: the adversary found an in-tolerance size match.
        degree_zero: some serving of the object reached degree 0.
        degree_zero_original: the *original* (non-duplicate) serving
            reached degree 0 — distinguishing real successes from the
            retransmitted-copy successes Figure 5 dissects.
        original_degree: ground-truth degree of the first serving
            (None when it never hit the wire).
        success: the paper's criterion — identified AND degree 0.
    """

    object_id: str
    identified: bool
    degree_zero: bool
    degree_zero_original: bool
    original_degree: Optional[float]
    matched_estimate: Optional[ObjectEstimate] = None

    @property
    def success(self) -> bool:
        return self.identified and self.degree_zero

    @property
    def success_via_duplicate_only(self) -> bool:
        """Succeeded, but only a retransmitted copy was serialized."""
        return self.success and not self.degree_zero_original


@dataclass
class SequenceAttackResult:
    """Outcome of one full attack trial."""

    single_object: Dict[str, ObjectVerdict] = field(default_factory=dict)
    sequence_prediction: List[str] = field(default_factory=list)
    sequence_truth: List[str] = field(default_factory=list)
    sequence_correct: Dict[str, bool] = field(default_factory=dict)
    broken_connection: bool = False
    #: The adversary gave up (ABORTED phase) instead of estimating; the
    #: verdicts above describe what the wire happened to show, but the
    #: attack claims no success for them.
    attack_aborted: bool = False

    def single_success(self, object_id: str) -> bool:
        verdict = self.single_object.get(object_id)
        return bool(verdict and verdict.success)


class SequenceAttack:
    """Offline analysis of one attacked page load."""

    def __init__(
        self,
        site: IsideWithSite,
        estimator: Optional[SizeEstimator] = None,
        predictor: Optional[SizePredictor] = None,
        chunk_bytes: int = 2048,
    ) -> None:
        self.site = site
        self.estimator = estimator or SizeEstimator()
        self.predictor = predictor or SizePredictor(
            site.size_map(), chunk_bytes=chunk_bytes
        )

    def analyze(
        self,
        monitor: TrafficMonitor,
        report: MultiplexingReport,
        analysis_start: float = 0.0,
        broken_connection: bool = False,
        attack_aborted: bool = False,
    ) -> SequenceAttackResult:
        """Score one trial.

        Args:
            monitor: the adversary's packet capture queries.
            report: ground-truth multiplexing degrees for the trial.
            analysis_start: ignore traffic before this time (the attack
                analyses traffic after the reset window when targeting
                the image sequence).
            broken_connection: the page load failed outright.
            attack_aborted: the adversary's drop phase gave up; the
                result is flagged so aggregations can exclude it.
        """
        result = SequenceAttackResult(
            sequence_truth=[f"emblem-{p}" for p in self.site.party_order],
            broken_connection=broken_connection,
            attack_aborted=attack_aborted,
        )
        packets = monitor.response_packets()
        estimates = self.estimator.estimate(packets)

        # --- One object at a time -------------------------------------
        for object_id in self.site.objects_of_interest:
            result.single_object[object_id] = self._verdict(
                object_id, estimates, report
            )

        # --- All objects at a time ------------------------------------
        late_estimates = [
            estimate for estimate in estimates
            if estimate.start_time >= analysis_start
        ]
        labelled = self.predictor.predict_sequence_assignment(
            late_estimates, candidates=list(result.sequence_truth)
        )
        result.sequence_prediction = [match.object_id for _, match in labelled]
        for position, truth_id in enumerate(result.sequence_truth):
            predicted_ok = (
                position < len(result.sequence_prediction)
                and result.sequence_prediction[position] == truth_id
            )
            serialized = self._degree_zero(truth_id, report)
            result.sequence_correct[truth_id] = (
                predicted_ok and serialized and not broken_connection
            )
        # The HTML is scored in sequence mode too (Table II column 1):
        # its sequence success equals its single-object success since it
        # is not part of the ordered image set.
        html_verdict = result.single_object.get(HTML_OBJECT_ID)
        if html_verdict is not None:
            result.sequence_correct[HTML_OBJECT_ID] = (
                html_verdict.success and not broken_connection
            )
        return result

    # ------------------------------------------------------------------

    def _verdict(
        self,
        object_id: str,
        estimates: Sequence[ObjectEstimate],
        report: MultiplexingReport,
    ) -> ObjectVerdict:
        matched = self.predictor.find_object(estimates, object_id)
        min_degree = report.min_degree(object_id)
        original_degree = report.original_degree(object_id)
        return ObjectVerdict(
            object_id=object_id,
            identified=matched is not None,
            degree_zero=(min_degree is not None and min_degree == 0.0),
            degree_zero_original=(
                original_degree is not None and original_degree == 0.0
            ),
            original_degree=original_degree,
            matched_estimate=matched,
        )

    def _degree_zero(self, object_id: str, report: MultiplexingReport) -> bool:
        min_degree = report.min_degree(object_id)
        return min_degree is not None and min_degree == 0.0
