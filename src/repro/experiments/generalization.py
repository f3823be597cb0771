"""E12 — generalizing the attack beyond isidewith.com (paper §VII).

Runs the §V attack against randomly generated websites, sweeping

* the page's object count (does a busier page hurt the attack?), and
* planted size collisions (§II precondition: the target's size must be
  unique within the site — what happens when it is not?).

Success per trial = the target object served non-multiplexed *and* the
best size match over the whole site inventory points at the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.adversary import AdversaryConfig
from repro.experiments.executor import TrialExecutor
from repro.experiments.harness import TrialConfig, run_load
from repro.experiments.report import format_table, percentage
from repro.simkernel.randomstream import RandomStreams
from repro.web.generator import GeneratedSite, generate_site


def run_generated_trial(
    trial: int,
    seed: int,
    object_count: int,
    size_collision: int,
    escalated_spacing: float = 0.400,
) -> Tuple[GeneratedSite, bool, bool]:
    """One attacked load of a generated site.

    The adversary tunes its escalated spacing to the *profiled* site —
    §IV-B: "the amount of jitter to be introduced should depend on the
    size of the object of interest, the time elapsed since the previous
    GET request, …".  These pages serve a dynamic target with up to
    ≈320 ms of server think time, so the post-reset spacing must exceed
    that for the target to land in a quiet slot (0.4 s default).

    Returns ``(site, serialized, identified)`` — the two halves of the
    paper's success criterion for the target object.
    """
    # The spawn key deliberately omits the collision count: a profile
    # with confusers is the *same site plus confusers*, so the
    # collision comparison is paired rather than across-site noise.
    rng = RandomStreams(seed).spawn(f"gen-{object_count}-{trial}")
    site = generate_site(
        rng, object_count=object_count, size_collision=size_collision
    )
    target_position = site.schedule.index_of(site.target_object_id) + 1
    config = TrialConfig(
        adversary=AdversaryConfig(
            trigger_get_index=target_position,
            escalated_jitter=escalated_spacing,
        )
    )
    result = run_load(site, rng, config, trial)
    serialized, match = result.score_target(site.target_object_id)
    return site, serialized, match is not None


@dataclass(frozen=True)
class _GeneratedTrial:
    """One generated-site attack, returning only the picklable verdicts
    (the :class:`GeneratedSite` stays worker-side)."""

    seed: int
    object_count: int
    collisions: int

    def __call__(self, trial: int) -> Tuple[bool, bool]:
        _, serialized, identified = run_generated_trial(
            trial, self.seed, self.object_count, self.collisions
        )
        return serialized, identified


@dataclass
class GeneralizationResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["site profile", "target serialized", "target identified",
             "attack success"],
            self.rows(),
            title="E12 / §VII — the attack on generated websites",
        )


def run(
    trials: int = 8,
    seed: int = 7,
    profiles: Optional[List[Tuple[str, int, int]]] = None,
    workers: Optional[int] = None,
) -> GeneralizationResult:
    """Sweep site profiles: (label, object_count, size_collisions)."""
    profiles = profiles or [
        ("15 objects", 15, 0),
        ("30 objects", 30, 0),
        ("60 objects", 60, 0),
        ("30 objects + 3 size collisions", 30, 3),
    ]
    executor = TrialExecutor(workers=workers)
    result = GeneralizationResult()
    for label, object_count, collisions in profiles:
        serialized_count = 0
        identified_count = 0
        success_count = 0
        verdicts = executor.map_trials(
            trials, _GeneratedTrial(seed, object_count, collisions)
        )
        for serialized, identified in verdicts:
            serialized_count += serialized
            identified_count += identified
            success_count += serialized and identified
        result.rows_data.append([
            label,
            f"{percentage(serialized_count, trials):.0f}%",
            f"{percentage(identified_count, trials):.0f}%",
            f"{percentage(success_count, trials):.0f}%",
        ])
    return result
