"""Reference single-trial slices for profiling and the benchmark suite.

Two canonical trials bound the per-trial cost of every sweep:

* the **Table I slice** — one jittered page load (50 ms GET spacing),
  the unit of work the E3 sweep repeats ``trials × delays`` times;
* the **Fig. 6 slice** — one attacked load with 80 % targeted drops,
  the heaviest trial shape (retransmission storms, stream resets, and
  the offline sequence analysis).

``python -m repro profile`` runs both with a profiler attached and
prints the per-subsystem report; the ``paper-tcp`` and ``paper-quic``
workloads of ``benchmarks/suite`` time the same two slices over each
transport.
"""

from __future__ import annotations

from typing import Tuple

from repro import profiling
from repro.core.adversary import AdversaryConfig
from repro.experiments.harness import (
    SpacingSetup,
    TrialConfig,
    TrialSummary,
    summarize_trial,
)
from repro.web.workload import VolunteerWorkload

#: Slice names accepted by :func:`reference_config` / :func:`run_reference_trial`.
KINDS = ("table1", "fig6")


def reference_config(kind: str) -> TrialConfig:
    """The canonical :class:`TrialConfig` of one reference slice."""
    if kind == "table1":
        config = TrialConfig()
        config.controller_setup = SpacingSetup(0.050, noise_fraction=0.5)
        return config
    if kind == "fig6":
        return TrialConfig(
            adversary=AdversaryConfig(drop_rate=0.8, enable_escalation=False)
        )
    raise ValueError(f"unknown reference slice {kind!r}; expected one of {KINDS}")


def run_reference_trial(
    kind: str, trial: int = 0, seed: int = 7
) -> TrialSummary:
    """Run one reference trial end to end (analysis included)."""
    workload = VolunteerWorkload(seed=seed)
    return summarize_trial(trial, workload, reference_config(kind))


def profile_reference(
    seed: int = 7, trials_per_kind: int = 1
) -> Tuple[profiling.Profiler, str]:
    """Profile the reference slices; returns (profiler, report text)."""
    with profiling.profiled() as profiler:
        for kind in KINDS:
            with profiler.timer(f"slice.{kind}"):
                for trial in range(trials_per_kind):
                    run_reference_trial(kind, trial=trial, seed=seed)
    for name, amount in profiling.hpack_cache_counters().items():
        profiler.counters[name] = amount
    return profiler, profiler.render()
