"""E18 — does the attack survive a transport without HOL blocking?

The paper's targeted-drop attack (§V) serializes the emblem images by
dropping in-flight response segments: TCP's single reliable byte
stream head-of-line-blocks every other HTTP/2 stream until the
retransmission lands, the browser panics into RST_STREAM-and-
re-request, and the spaced re-requests drain one object at a time for
the on-path observer to size.  The §VII discussion asks how the attack
fares on transports without that coupling.

This experiment runs the identical adversary (drops, jitter and GET
pacing untouched) over both registered transports:

* ``tcp`` — the paper's setting; one dropped segment stalls the whole
  connection, so the drop window reliably forces the reset storm.
* ``quic`` — the QUIC-like datagram transport
  (:mod:`repro.transport.quic`); a dropped datagram stalls only the
  streams whose frames it carried, the others keep delivering, the
  browser never resets, and the emblems stay fully multiplexed.

Reported per transport: the fraction of emblem images individually
identified, sequence positions recovered (Table II's quantity), the
ground-truth mean minimum multiplexing degree over the emblems
(0 = fully serialized, 1 = fully interleaved), and the collateral each
transport pays — retransmissions, duplicate servings, stream resets.
The result HTML is excluded on purpose: the first object of a page
load is serialized on *any* transport, which is why single-object
identification needs no attack at all (paper §III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.adversary import AdversaryConfig
from repro.experiments.executor import TrialExecutor
from repro.experiments.harness import TrialConfig, collector_paused, run_trial
from repro.experiments.report import format_table, percentage
from repro.transport import TRANSPORTS
from repro.web.workload import VolunteerWorkload


@dataclass
class TransportStudyResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            [
                "transport", "emblems identified", "sequence positions",
                "mean min degree", "retrans/load", "dup servings", "resets",
            ],
            self.rows(),
            title="E18 / §VII — targeted-drop attack across transports",
        )


@dataclass(frozen=True)
class _TransportTrial:
    """One fully attacked load on a pinned transport.

    The transport is pinned in the :class:`TrialConfig` rather than
    inherited from ``REPRO_TRANSPORT`` so both arms of the comparison
    stay honest regardless of the process environment.
    """

    seed: int
    transport: str

    def __call__(self, trial: int) -> Tuple[int, int, int, float, int, int, int]:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(
            adversary=AdversaryConfig(), transport=self.transport
        )
        with collector_paused(), run_trial(trial, workload, config) as outcome:
            analysis = outcome.analyze()
            emblems = [f"emblem-{p}" for p in outcome.site.party_order]
            identified = sum(
                1 for emblem in emblems if analysis.single_success(emblem)
            )
            positions = sum(
                1 for a, b in zip(analysis.sequence_prediction,
                                  analysis.sequence_truth)
                if a == b
            )
            degrees = [outcome.report.min_degree(e) for e in emblems]
            known = [d for d in degrees if d is not None]
            return (
                identified,
                positions,
                len(emblems),
                sum(known) / len(known) if known else 1.0,
                outcome.total_retransmissions(),
                outcome.duplicate_servings(),
                outcome.stream_resets(),
            )


def run(
    trials: int = 3,
    seed: int = 7,
    workers: Optional[int] = None,
) -> TransportStudyResult:
    """Attack the same volunteer sessions over each transport."""
    result = TransportStudyResult()
    executor = TrialExecutor(workers=workers)
    for transport in TRANSPORTS:
        rows = executor.map_trials(trials, _TransportTrial(seed, transport))
        identified = sum(row[0] for row in rows)
        positions = sum(row[1] for row in rows)
        emblems = sum(row[2] for row in rows)
        degree = sum(row[3] for row in rows) / len(rows)
        retrans = sum(row[4] for row in rows) / len(rows)
        duplicates = sum(row[5] for row in rows)
        resets = sum(row[6] for row in rows)
        result.rows_data.append([
            transport,
            f"{percentage(identified, emblems):.0f}%",
            f"{percentage(positions, emblems):.0f}%",
            f"{degree:.2f}",
            f"{retrans:.1f}",
            str(duplicates),
            str(resets),
        ])
    return result
