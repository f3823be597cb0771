"""E11 — inference from partly multiplexed objects (paper §VII).

    "Another possible extension would be to infer the object identity
    even when the object is partly multiplexed.  Our preliminary
    experiments suggest that this is indeed possible…"

At a mild jitter setting (25 ms — Table I's weakest point) many objects
of interest stay partly multiplexed: the delimiter estimator produces
*merged* bursts.  This experiment measures how many emblem images the
adversary can still place on the page by explaining merged bursts as
subset sums over the known inventory
(:class:`~repro.core.analysis.PartialMultiplexingAnalyzer`), compared
with exact-size matching alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.analysis import PartialMultiplexingAnalyzer
from repro.core.estimator import SizeEstimator
from repro.core.predictor import SizePredictor
from repro.experiments.executor import TrialExecutor
from repro.experiments.harness import (
    SpacingSetup,
    TrialConfig,
    collector_paused,
    run_trial,
)
from repro.experiments.report import format_table, percentage
from repro.web.workload import VolunteerWorkload


@dataclass
class PartialMuxResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["analysis", "emblems located on the page"],
            self.rows(),
            title="E11 / §VII — inference from partly multiplexed objects",
        )


@dataclass(frozen=True)
class _PartialMuxTrial:
    """One mild-jitter load scored worker-side.

    The blob analysis needs the raw packet capture, which never leaves
    the worker; only the (exact, exact|blob, total) counts come back.
    """

    seed: int
    spacing: float

    def __call__(self, trial: int) -> Tuple[int, int, int]:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(controller_setup=SpacingSetup(self.spacing))
        with collector_paused(), run_trial(trial, workload, config) as outcome:
            site = outcome.site
            estimates = SizeEstimator().estimate(
                outcome.monitor.response_packets()
            )
        predictor = SizePredictor(site.size_map())
        analyzer = PartialMultiplexingAnalyzer(predictor)
        emblems = [f"emblem-{p}" for p in site.party_order]

        exact: Set[str] = set()
        via_blob: Set[str] = set()
        for object_id in emblems:
            if predictor.find_object(estimates, object_id) is not None:
                exact.add(object_id)
        for estimate in estimates:
            members = analyzer.identify_members(estimate, candidates=emblems)
            if members:
                via_blob.update(members)
        return len(exact), len(exact | via_blob), len(emblems)


def run(
    trials: int = 10,
    seed: int = 7,
    spacing: float = 0.025,
    workers: Optional[int] = None,
) -> PartialMuxResult:
    """Mild-jitter loads analyzed with and without blob explanation."""
    counts = TrialExecutor(workers=workers).map_trials(
        trials, _PartialMuxTrial(seed, spacing)
    )
    exact_found = sum(exact for exact, _, _ in counts)
    blob_found = sum(blob for _, blob, _ in counts)
    total = sum(size for _, _, size in counts)

    result = PartialMuxResult()
    result.rows_data.append([
        "exact size match only",
        f"{percentage(exact_found, total):.0f}%",
    ])
    result.rows_data.append([
        "+ subset-sum blob explanation",
        f"{percentage(blob_found, total):.0f}%",
    ])
    return result
