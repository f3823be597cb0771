"""Robustness study — attack success under realistic network faults.

The paper ran its attack for three months on a live campus gateway
(§VI), where loss bursts, link flaps and cross-traffic perturbed every
phase of it; the other experiment modules run on clean links.  This
study asks the simulated analogue of the paper's most practical
question: **how robust is serialization-by-manipulation under network
faults?**  It sweeps a *fault intensity* knob from 0 (clean links) to 1
(severely impaired) and reports, per level, the attack's success rate,
how often the adaptive adversary had to retry or abort its drop phase,
and how broken the page loads themselves were.

Each intensity compiles to a deterministic :class:`FaultSchedule`
(:func:`noise_schedule`) combining every impairment in the taxonomy —
Gilbert–Elliott loss bursts, link flaps across the drop window,
a bandwidth dip, delay spikes around the trigger, a reordering window
over the re-request phase, and light duplication — with magnitudes
scaled by the intensity.  Trials are seeded from their index alone, so
the whole sweep is reproducible bit-for-bit.

The sweep runs under the executor's fault-tolerance policy (per-trial
timeout, same-seed retry, checkpoint/resume), so the study itself
survives crashed workers and interruption: a killed worker or a killed
run resumes from the JSON checkpoint with an identical final output.

CLI::

    repro robustness-study [--trials N] [--quick] [--checkpoint ck.json]
                           [--json out.json] [--workers W]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.adversary import AdversaryConfig
from repro.experiments.executor import (
    FaultTolerance,
    TrialError,
    TrialExecutor,
)
from repro.experiments.harness import TrialConfig, summarize_trial
from repro.experiments.report import format_table, percentage
from repro.netsim.faults import (
    BandwidthDip,
    DelaySpike,
    Duplication,
    FaultSchedule,
    GilbertElliottLoss,
    ReorderWindow,
    flaps,
)
from repro.web.isidewith import HTML_OBJECT_ID
from repro.web.workload import VolunteerWorkload

#: The default intensity sweep.
INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Reduced sweep for the CI smoke run (``--quick``).
QUICK_INTENSITIES = (0.0, 0.5, 1.0)

#: Scored objects per trial: the result HTML plus the 8 emblem images.
OBJECTS_PER_TRIAL = 9


def noise_schedule(intensity: float) -> Optional[FaultSchedule]:
    """Compile a fault intensity in [0, 1] into a :class:`FaultSchedule`.

    The windows are anchored to the attack timeline of the canonical
    trial (trigger ≈ 1.1 s, drop window ≈ 1–7 s, spaced re-requests
    ≈ 7–14 s, retries pushing to ≈ 25 s):

    * **loss bursts** all trial long — burst frequency and length grow
      with intensity (Gilbert–Elliott);
    * **link flaps** across the drop window — at high intensity the
      window coincides with an outage, starving the adversary of the
      client reaction it needs (the adaptive-retry trigger);
    * a **bandwidth dip** over the drop/escalation boundary;
    * **delay spikes** around the trigger GET, perturbing when the
      adversary fires;
    * a **reordering window** over the re-request phase — re-interleaving
      the serialized objects the estimator depends on;
    * light **duplication** throughout.
    """
    if intensity <= 0:
        return None
    if intensity > 1:
        raise ValueError("fault intensity must be in [0, 1]")
    impairments = [
        GilbertElliottLoss(
            start=0.0,
            duration=60.0,
            bad_loss=0.85,
            mean_good=max(0.8, 4.0 - 3.0 * intensity),
            mean_bad=0.02 + 0.10 * intensity,
        ),
        BandwidthDip(start=3.0, duration=5.0, factor=1.0 - 0.7 * intensity),
        DelaySpike(
            start=0.5,
            duration=2.0,
            delay=0.005 + 0.020 * intensity,
            jitter=0.015 * intensity,
        ),
        ReorderWindow(
            start=6.5,
            duration=9.0,
            probability=min(1.0, 0.45 * intensity),
            max_delay=0.004 + 0.016 * intensity,
        ),
        Duplication(
            start=0.0, duration=60.0, probability=min(1.0, 0.06 * intensity)
        ),
    ]
    if intensity >= 0.5:
        # Flap the link across the drop window: long enough outages that
        # the client stalls into RTO backoff and the adversary's first
        # serialization attempts see no reaction at all.
        impairments.extend(
            flaps(
                start=2.0,
                count=2,
                down=0.4 + 1.6 * intensity,
                up=1.0,
            )
        )
    return FaultSchedule(tuple(impairments))


@dataclass(frozen=True)
class RobustnessTrial:
    """Picklable per-trial task: one attacked load at one intensity.

    Returns a plain-JSON dict so the executor can checkpoint it.
    """

    seed: int
    intensity: float
    max_drop_retries: int = 2
    horizon: float = 40.0

    def __call__(self, trial: int) -> Dict[str, Any]:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(
            adversary=AdversaryConfig(
                max_drop_retries=self.max_drop_retries,
                retry_backoff=0.5,
            ),
            faults=noise_schedule(self.intensity),
            fault_location="both",
            horizon=self.horizon,
        )
        summary = summarize_trial(trial, workload, config)
        analysis = summary.analysis
        scored = not summary.attack_aborted and not summary.broken
        object_successes = (
            sum(
                1 for verdict in analysis.single_object.values()
                if verdict.success
            )
            if scored else 0
        )
        sequence_correct = (
            sum(1 for ok in analysis.sequence_correct.values() if ok)
            if scored else 0
        )
        fault_drops = sum(
            count
            for category, count in summary.trace_categories.items()
            if category in ("link.drop.fault", "middlebox.drop.fault")
        )
        return {
            "trial": trial,
            "intensity": self.intensity,
            "completed": summary.completed,
            "aborted": summary.attack_aborted,
            "attack_phase": summary.attack_phase,
            "retries": summary.attack_retries,
            "html_success": bool(
                scored and analysis.single_success(HTML_OBJECT_ID)
            ),
            "object_successes": object_successes,
            "sequence_correct": sequence_correct,
            "client_retransmissions": summary.client_retransmissions,
            "fault_drops": fault_drops,
            "duration": summary.duration,
        }


@dataclass
class IntensityRow:
    """Aggregate of all trials at one fault intensity."""

    intensity: float
    trials: int = 0
    errors: int = 0
    object_successes: int = 0
    html_successes: int = 0
    sequence_correct: int = 0
    broken: int = 0
    aborted: int = 0
    retries: int = 0
    fault_drops: int = 0

    def add(self, record: Dict[str, Any]) -> None:
        self.trials += 1
        self.object_successes += record["object_successes"]
        self.html_successes += 1 if record["html_success"] else 0
        self.sequence_correct += record["sequence_correct"]
        self.broken += 0 if record["completed"] else 1
        self.aborted += 1 if record["aborted"] else 0
        self.retries += record["retries"]
        self.fault_drops += record["fault_drops"]

    @property
    def success_pct(self) -> float:
        """Mean per-object attack success (the headline curve)."""
        return percentage(
            self.object_successes, self.trials * OBJECTS_PER_TRIAL
        )

    @property
    def html_success_pct(self) -> float:
        return percentage(self.html_successes, self.trials)

    @property
    def sequence_pct(self) -> float:
        return percentage(
            self.sequence_correct, self.trials * OBJECTS_PER_TRIAL
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "intensity": self.intensity,
            "trials": self.trials,
            "errors": self.errors,
            "success_pct": round(self.success_pct, 2),
            "html_success_pct": round(self.html_success_pct, 2),
            "sequence_pct": round(self.sequence_pct, 2),
            "broken": self.broken,
            "aborted": self.aborted,
            "retries": self.retries,
            "fault_drops": self.fault_drops,
        }


@dataclass
class RobustnessResult:
    """The whole sweep, renderable as a table or JSON."""

    rows_data: List[IntensityRow] = field(default_factory=list)
    trials: int = 0
    seed: int = 7

    def rows(self) -> List[List[str]]:
        return [
            [
                f"{row.intensity:.2f}",
                f"{row.success_pct:.0f}%",
                f"{row.html_success_pct:.0f}%",
                f"{row.sequence_pct:.0f}%",
                str(row.aborted),
                str(row.retries),
                str(row.broken),
                str(row.fault_drops),
                str(row.errors),
            ]
            for row in self.rows_data
        ]

    def render(self) -> str:
        return format_table(
            ["fault intensity", "attack success", "HTML success",
             "sequence correct", "aborted", "retries", "broken",
             "fault drops", "trial errors"],
            self.rows(),
            title=(
                "Robustness study — serialization-by-manipulation "
                "under network faults"
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "study": "robustness",
            "seed": self.seed,
            "trials": self.trials,
            "rows": [row.to_json() for row in self.rows_data],
        }

    @property
    def monotone_story(self) -> bool:
        """Success never *increases* as faults intensify (small
        tolerance for sampling noise at adjacent levels)."""
        successes = [row.success_pct for row in self.rows_data]
        return all(
            later <= earlier + 5.0
            for earlier, later in zip(successes, successes[1:])
        )


def run(
    trials: int = 8,
    seed: int = 7,
    intensities: Sequence[float] = INTENSITIES,
    workers: Optional[int] = None,
    max_drop_retries: int = 2,
    checkpoint_path: Optional[str] = None,
) -> RobustnessResult:
    """Run the fault-intensity sweep.

    Each trial gets a 300 s wall-clock budget and one same-seed retry.

    Args:
        trials: attacked page loads per intensity level.
        seed: workload master seed.
        intensities: fault levels to sweep, each in [0, 1].
        workers: worker processes (see :class:`TrialExecutor`).
        max_drop_retries: the adversary's retry budget per trial.
        checkpoint_path: JSON file completed trials stream into; a
            re-run with it resumes.  One file covers the whole sweep:
            trial indices are offset per level so every (level, trial)
            pair is distinct.

    Raises:
        ValueError: before any trial runs, when no intensity is given
            or one lies outside [0, 1] (NaN included).
    """
    if not intensities:
        raise ValueError("no fault intensity to sweep")
    outside = [level for level in intensities if not 0.0 <= level <= 1.0]
    if outside:
        raise ValueError(f"fault intensities must be in [0, 1], got {outside}")
    executor = TrialExecutor(workers=workers)
    fault_tolerance = FaultTolerance(
        timeout=300.0, retries=1, checkpoint_path=checkpoint_path
    )
    result = RobustnessResult(trials=trials, seed=seed)
    for level, intensity in enumerate(intensities):
        row = IntensityRow(intensity=intensity)
        # Distinct index range per level so one checkpoint file covers
        # the whole sweep; the offset is stripped again before the trial
        # runs, so seeds are unchanged.
        offset = level * 100000
        indices = [offset + trial for trial in range(trials)]
        task = _OffsetTask(
            RobustnessTrial(
                seed=seed,
                intensity=intensity,
                max_drop_retries=max_drop_retries,
            ),
            offset,
        )
        outcomes = executor.map_trials(
            indices, task, fault_tolerance=fault_tolerance
        )
        for outcome in outcomes:
            if isinstance(outcome, TrialError):
                row.errors += 1
                row.trials += 1
            else:
                row.add(outcome)
        result.rows_data.append(row)
    return result


@dataclass(frozen=True)
class _OffsetTask:
    """Strips the per-level checkpoint offset before running the trial."""

    task: RobustnessTrial
    offset: int

    def __call__(self, index: int) -> Dict[str, Any]:
        return self.task(index - self.offset)
