"""Frontier-at-scale: the inference study on the campaign runner.

``repro infer`` evaluates the accuracy/overhead frontier over many
zipf page-population sessions.  :class:`InferCampaignConfig` is a
:class:`~repro.campaign.engine.ShardedConfig`, so the run goes through
:func:`repro.campaign.engine.run_campaign` itself — shards on the
:class:`~repro.experiments.executor.TrialExecutor`, config-digest-sealed
``infer-*`` checkpoints, deterministic same-seed retries, quarantine,
partial coverage and failure manifests.  This module keeps only the
shard fold (:class:`InferShardTask`, integer
:class:`~repro.infer.summary.InferSummary` folds that merge exactly at
any split) and the frontier report, so a SIGKILLed run resumes to a
bit-identical frontier (``scripts/resume_smoke.py infer`` pins that end
to end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict

from repro.campaign.engine import ShardedConfig, run_campaign
from repro.experiments.executor import heartbeat
from repro.experiments.report import format_table
from repro.infer.classifiers import classifier_names
from repro.infer.dataset import StudyDesign, evaluate_session
from repro.infer.defenses import defense_level_names
from repro.infer.summary import FORMAT, InferSummary

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.campaign.engine import CampaignResult


@dataclass(frozen=True)
class InferCampaignConfig(ShardedConfig):
    """Parameters of one at-scale frontier run.

    Construction validates the whole study design (defense levels,
    classifier names, ``reps``, ``max_objects``), so a bad value fails
    here rather than in every shard.

    Attributes:
        sessions: page-population sessions evaluated.
        shard_size: sessions per shard (the checkpoint/retry unit).
        seed: master seed of the study design.
        reps: attacker training fetches per object.
        max_objects: classes per page.
        levels / classifiers: the swept axes (names).
    """

    sessions: int = 2_000
    shard_size: int = 250
    seed: int = 2020
    reps: int = 2
    max_objects: int = 6
    levels: tuple = defense_level_names()
    classifiers: tuple = classifier_names()

    checkpoint_prefix = "infer"
    summary_type = InferSummary

    def __post_init__(self) -> None:
        self._check_geometry()
        self.design()

    def design(self) -> StudyDesign:
        return StudyDesign(
            seed=self.seed,
            reps=self.reps,
            max_objects=self.max_objects,
            levels=tuple(self.levels),
            classifiers=tuple(self.classifiers),
        )

    def shard_task(self, backend: str) -> "InferShardTask":
        # Feature extraction follows REPRO_BACKEND on its own (the CLI
        # exports --backend); the result is bit-identical either way.
        return InferShardTask(self)

    def empty_summary(self) -> InferSummary:
        return InferSummary(tuple(self.levels), tuple(self.classifiers))

    def result_json(self, result: "CampaignResult") -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "config_digest": self.digest(),
            "sessions": self.sessions,
            "shards": result.shards,
            "summary": result.summary.to_json(),
            "summary_digest": result.summary.digest(),
        }

    def render_result(self, result: "CampaignResult") -> str:
        from repro.experiments.infer_study import InferStudyResult

        report = InferStudyResult(
            design=self.design(), summary=result.summary
        ).render()
        coverage = result.coverage_rows()
        if coverage:
            report += "\n" + format_table(["coverage", "value"], coverage)
        return (
            report
            + f"\nshards={result.shards} digest={result.summary.digest()[:12]}"
        )


@dataclass(frozen=True)
class InferShardTask:
    """Picklable worker task: fold one shard's sessions to summary JSON."""

    config: InferCampaignConfig

    def __call__(self, shard: int) -> Dict[str, Any]:
        design = self.config.design()
        summary = InferSummary(design.levels, design.classifiers)
        heartbeat()
        for session in self.config.shard_range(shard):
            summary.fold(evaluate_session(session, design))
            heartbeat()
        return summary.to_json()


#: ``repro infer``'s runner: the campaign runner itself.
run_infer_campaign = run_campaign
