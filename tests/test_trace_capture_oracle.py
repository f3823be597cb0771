"""Pinned digests of whole page loads: every trace row, every capture record.

The trace log and the tap are the testbed's record of a load: the
harness counts trace rows to score Tables I and II, and the capture
records are everything the adversary sees (the fields of the paper's
``ssl.record.content_type==23`` filter).  This module hashes, for a few
attacked loads over both transports, every materialized trace row
``(time, category, fields)`` in append order — field names in order
included — and every capture record, and compares the hashes with
values recorded before the per-packet bookkeeping was rewritten
(name/value trace rows, the indexed HPACK table, the slotted packet and
the leaner tap).  Any change to a row, a record or their order fails
here, whichever layer made it.

Run ``python tests/test_trace_capture_oracle.py`` to print the current
digests in the form of :data:`PINNED`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest

from repro.core.adversary import AdversaryConfig
from repro.experiments.harness import TrialConfig, run_trial
from repro.experiments.hotpath import reference_config
from repro.experiments.robustness_study import noise_schedule
from repro.netsim import packet as packet_module
from repro.web.workload import VolunteerWorkload


def _fault_config() -> TrialConfig:
    """A robustness-study load: full fault intensity on both links."""
    return TrialConfig(
        adversary=AdversaryConfig(max_drop_retries=2, retry_backoff=0.5),
        faults=noise_schedule(1.0),
        fault_location="both",
        horizon=40.0,
    )


#: load name → (config factory, trial index).
LOADS = {
    "table1": (lambda: reference_config("table1"), 0),
    "fig6": (lambda: reference_config("fig6"), 3),
    "faults": (_fault_config, 1),
}

#: (load, transport) → (rows, row sha256, capture records, capture sha256).
PINNED = {
    ('faults', 'quic'): (10945, '638bd334849092aab6a0f0ab1248246d8b869aa7009b0dd4df6a0587f0cf210a', 3572, '46dd62cbedd2949253223f2c74561beb5908944cf9f7bb8dc662d4b81634617a'),
    ('faults', 'tcp'): (6577, 'c03876dce07aea22da7f3092af4149b46f730000d54fad50ae088b1b4a73c196', 1641, '605ca2bdbff07f830f87f2ae77069194d394ecf4d8ed04785dd28f45a6139343'),
    ('fig6', 'quic'): (10577, 'fdaf45d60b2e77143fb2a5c4985d86548aef7409e9e02e8e974ce245bb5e164e', 3888, '7067013c42c027417dd787ecffcdc8c79c30eec94767cc9627cd156991e18e0c'),
    ('fig6', 'tcp'): (6901, '01ad44afdd3bdc21c5d83fa8161a6aa1bdffa1837ad8f6148f6c9f3ac45ad92b', 1868, '6241fe87641056526aba1de9facdaa1d6df796bbbd6ad907372f407d4614cb8a'),
    ('table1', 'quic'): (5292, '80297f40ad0c03102ec8e88b6e2491beba14cf065116addc2344e147a97bcbe5', 1594, 'cfae4140bb0926db8647a2de1d25b8b94f3cfaee727f7a24b2437c0991dc69a6'),
    ('table1', 'tcp'): (5252, '48e7eae5fc7b4338de96a2737c22e28ed2cf4f8882aa98dc8a6fbc0020452704', 1584, 'c54940ac84440fff277d70eb34f854d89216f82d224e39a77c4d88ad4875843d'),
}


def load_digests(load: str, transport: str):
    """Run one load and hash its trace rows and capture records."""
    factory, trial = LOADS[load]
    config = replace(factory(), transport=transport)
    # Packet ids come from a process-wide counter: restart it so the
    # digests do not depend on what ran earlier in the process.
    saved = packet_module._packet_ids
    packet_module._packet_ids = itertools.count(1)
    try:
        result = run_trial(trial, VolunteerWorkload(seed=7), config)
    finally:
        packet_module._packet_ids = saved
    rows = hashlib.sha256()
    for record in result.trace:
        row = (record.time, record.category, tuple(record.fields.items()))
        rows.update(repr(row).encode("utf-8") + b"\n")
    capture = hashlib.sha256()
    records = list(result.topology.middlebox.capture)
    for record in records:
        capture.update(repr(tuple(record)).encode("utf-8") + b"\n")
    return len(result.trace), rows.hexdigest(), len(records), capture.hexdigest()


@pytest.mark.parametrize("load, transport", sorted(PINNED))
def test_trace_rows_and_capture_records_match_pinned_digests(load, transport):
    assert load_digests(load, transport) == PINNED[(load, transport)]


if __name__ == "__main__":
    for key in sorted(PINNED):
        print(f"    {key!r}: {load_digests(*key)!r},")
