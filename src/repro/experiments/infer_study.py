"""E19 — the accuracy/overhead frontier the paper never measured.

The paper's attack (§III) identifies objects by near-exact TLS
record-size matching.  Any padding defense trivially breaks *that* —
but Morla (arXiv:1707.00641, 1607.06709) shows HTTP/2 object sizes
leak statistically under pipelining and multiplexing.  This experiment
sweeps **defense strength × classifier** over seeded page-population
sessions and reports, per defense level:

* its exact integer byte overhead (permille of the undefended load);
* its added latency (chaff slots + pipeline serialization);
* the accuracy of the paper's exact-match baseline *and* of each
  registered statistical classifier (:mod:`repro.infer.classifiers`).

Reading the frontier: with defenses off, the statistical classifiers
beat the exact matcher on multiplexed traffic (contamination pushes
totals outside the exact tolerance; feature-space models learn the
contamination distribution instead).  Padding then buys privacy at a
byte cost — but far less privacy against the statistical attacker than
against the baseline the paper assumed.

The sessions run on the sharded campaign runner
(:func:`repro.campaign.engine.run_campaign` over an
:class:`~repro.infer.campaign.InferCampaignConfig`), one shard per
worker, the same code ``repro infer`` runs.  All arithmetic is integer
end to end, so the table is bit-identical across worker counts, shard
splits and kill-resume, and is sealed by a golden master.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.campaign.engine import run_campaign
from repro.experiments.executor import resolve_workers
from repro.experiments.report import format_table
from repro.infer.campaign import InferCampaignConfig
from repro.infer.dataset import StudyDesign
from repro.infer.defenses import defense_level
from repro.infer.summary import InferSummary


def _permille_str(permille: int) -> str:
    """Fixed-point rendering: integer permille -> 'dd.d%'."""
    return f"{permille // 10}.{permille % 10}%"


@dataclass
class InferStudyResult:
    """The frontier: one row per defense level, plus integer accessors."""

    design: StudyDesign
    summary: InferSummary

    def accuracy_permille(self, level: str, classifier: str) -> int:
        return self.summary.accuracy_permille(level, classifier)

    def byte_overhead_permille(self, level: str) -> int:
        return self.summary.byte_overhead_permille(level)

    def rows(self) -> List[List[str]]:
        rows = []
        for name in self.design.levels:
            level = defense_level(name)
            row = [
                name,
                str(level.pad_block),
                str(level.chaff_records),
                "yes" if level.pipeline else "no",
                _permille_str(self.summary.byte_overhead_permille(name)),
                f"{self.summary.mean_latency_us(name) / 1000:.1f}ms",
            ]
            row.extend(
                _permille_str(self.summary.accuracy_permille(name, clf))
                for clf in self.design.classifiers
            )
            rows.append(row)
        return rows

    def render(self) -> str:
        headers = ["defense", "pad", "chaff", "pipe", "bytes+", "latency+"]
        headers.extend(self.design.classifiers)
        table = format_table(
            headers,
            self.rows(),
            title=(
                "E19 / infer — statistical size inference vs defenses "
                f"({self.summary.sessions} sessions, "
                f"{self.summary.objects} objects)"
            ),
        )
        off = self.design.levels[0]
        statistical = [
            clf for clf in self.design.classifiers if clf != "exact"
        ]
        if "exact" in self.design.classifiers and statistical:
            best = max(
                statistical,
                key=lambda clf: (self.summary.accuracy_permille(off, clf), clf),
            )
            table += (
                f"\nundefended: exact-match baseline "
                f"{_permille_str(self.summary.accuracy_permille(off, 'exact'))}"
                f" vs best statistical ({best}) "
                f"{_permille_str(self.summary.accuracy_permille(off, best))}"
            )
        return table


def run(
    trials: int = 6,
    seed: int = 2020,
    workers: Optional[int] = None,
    design: Optional[StudyDesign] = None,
) -> InferStudyResult:
    """Sweep defense strength × classifier over ``trials`` sessions.

    The sessions split into one shard per resolved worker, each at most
    ``repro infer``'s default shard size, since a shard keeps its
    features in memory until its predictions end.  No sessions give
    the empty frontier.

    Raises:
        ValueError: when ``design`` sets a field
            :class:`~repro.infer.campaign.InferCampaignConfig` does not
            carry, so the campaign would run another design.
    """
    if design is None:
        design = StudyDesign(seed=seed)
    summary = InferSummary(design.levels, design.classifiers)
    if trials >= 1:
        config = InferCampaignConfig(
            sessions=trials,
            shard_size=min(
                InferCampaignConfig.shard_size,
                -(-trials // resolve_workers(workers)),
            ),
            seed=design.seed,
            reps=design.reps,
            max_objects=design.max_objects,
            levels=design.levels,
            classifiers=design.classifiers,
        )
        if config.design() != design:
            raise ValueError(
                "infer-study runs only designs an InferCampaignConfig "
                f"reproduces; got {design!r}"
            )
        summary = run_campaign(config, workers=workers).summary
    return InferStudyResult(design=design, summary=summary)
