"""repro — reproduction of "Depending on HTTP/2 for Privacy? Good Luck!"
(Mitra et al., DSN 2020).

An active traffic-analysis attack on HTTP/2 multiplexing, rebuilt on a
deterministic discrete-event network testbed:

* :mod:`repro.simkernel` — event-driven simulation kernel,
* :mod:`repro.netsim` — links, hosts and the programmable middlebox,
* :mod:`repro.tcp` — TCP (Reno, fast retransmit, RTO backoff),
* :mod:`repro.tls` — the TLS record layer as a size model,
* :mod:`repro.hpack` — HPACK header compression sizing,
* :mod:`repro.h2` — HTTP/2 framing, streams and multiplexing,
* :mod:`repro.h1` — the sequential HTTP/1.1 baseline,
* :mod:`repro.web` — the isidewith.com replica and browser model,
* :mod:`repro.core` — **the paper's contribution**: the adversary,
* :mod:`repro.experiments` — one module per paper table/figure,
* :mod:`repro.profiling` — hot-path counters/timers (``--profile``).

Quick start::

    from repro import quick_attack

    result = quick_attack(trial=0)
    print(result.sequence_prediction)   # recovered party order
    print(result.sequence_truth)        # ground truth

The exported names resolve on first access (PEP 562), so ``import
repro.<module>`` — the first thing a spawned worker does — loads that
module's own imports and not the packet stack or numpy.
"""

import importlib

__version__ = "1.0.0"

#: Public name → the module that defines it.
_EXPORTS = {
    "Adversary": "repro.core.adversary",
    "AdversaryConfig": "repro.core.adversary",
    "CampaignConfig": "repro.campaign.engine",
    "CampaignResult": "repro.campaign.engine",
    "FaultSchedule": "repro.netsim.faults",
    "FaultTolerance": "repro.experiments.executor",
    "SequenceAttackResult": "repro.core.sequence",
    "TrialConfig": "repro.experiments.harness",
    "TrialError": "repro.experiments.executor",
    "TrialExecutor": "repro.experiments.executor",
    "TrialResult": "repro.experiments.harness",
    "TrialSummary": "repro.experiments.harness",
    "PopulationWorkload": "repro.web.workload",
    "VolunteerWorkload": "repro.web.workload",
    "profiling": "repro.profiling",
    "run_campaign": "repro.campaign.engine",
    "run_trial": "repro.experiments.harness",
    "summarize_trial": "repro.experiments.harness",
}

__all__ = [*_EXPORTS, "quick_attack"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(_EXPORTS[name])
    if name != "profiling":  # the one exported submodule
        value = getattr(value, name)
    globals()[name] = value
    return value


def quick_attack(
    trial: int = 0,
    seed: int = 7,
    adversary: "AdversaryConfig" = None,
) -> "SequenceAttackResult":
    """Run one attacked isidewith session and return the analysis.

    Args:
        trial: volunteer index (selects the ground-truth party order).
        seed: workload master seed.
        adversary: attack parameters; defaults to the paper's §V values.

    Returns:
        The scored :class:`~repro.core.sequence.SequenceAttackResult`.
    """
    from repro.core.adversary import AdversaryConfig
    from repro.experiments.harness import (
        TrialConfig,
        collector_paused,
        run_trial,
    )
    from repro.web.workload import VolunteerWorkload

    workload = VolunteerWorkload(seed=seed)
    config = TrialConfig(adversary=adversary or AdversaryConfig())
    with collector_paused(), run_trial(trial, workload, config) as outcome:
        return outcome.analyze()
