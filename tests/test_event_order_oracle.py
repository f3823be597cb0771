"""The packet path's cheaper events change no order of anything.

Three pieces of the packet path skip work today's results never
depended on: a middlebox forwards a zero-delay packet inside its ingress
event, a restarted timer moves its queued event instead of cancelling it
and pushing a new one, and an in-order arrival advances the reassembly
point without touching the range list.  This module keeps the versions
before those shortcuts as reference copies, patches them in, and checks
that whole page loads come out the same: every trace row in order, every
capture record, the category histogram in first-seen order, and the
trial summary.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import replace

import pytest

from repro.core.adversary import AdversaryConfig
from repro.experiments.harness import TrialConfig, run_trial, summarize_result
from repro.experiments.hotpath import reference_config
from repro.experiments.robustness_study import noise_schedule
from repro.netsim import packet as packet_module
from repro.netsim.capture import PacketRecord
from repro.netsim.middlebox import Middlebox, PacketAction
from repro.simkernel.simulator import Simulator
from repro.simkernel.timers import Timer
from repro.tcp.reassembly import ReassemblyBuffer
from repro.web.workload import VolunteerWorkload


def reference_timer_start(self, delay):
    """``Timer.start`` with every restart a cancel and a fresh push."""
    self.cancel()
    self._expiry = self._sim.now + delay
    self._event = self._sim.schedule(
        delay, self._fire, priority=Simulator.PRIORITY_TIMER
    )


def reference_ingress(self, packet, direction):
    """``Middlebox._ingress`` with every forward scheduled as an event."""
    now = self._sim.now
    fault = None
    injector = self._faults[direction]
    if injector is not None:
        fault = injector.effect(now)
        if fault.drop:
            self.capture.append(
                PacketRecord.from_packet(now, direction, packet, dropped=True)
            )
            self.dropped += 1
            self.fault_dropped += 1
            self._record(
                "middlebox.drop.fault", packet, direction, ("fault",),
                (fault.reason,),
            )
            return
        if not fault.any:
            fault = None
    verdict = self._evaluate_filters(packet, direction, now)
    dropped = verdict.action is PacketAction.DROP
    self.capture.append(
        PacketRecord.from_packet(now, direction, packet, dropped=dropped)
    )
    if dropped:
        self.dropped += 1
        self._record("middlebox.drop", packet, direction)
        return
    release_delay = verdict.delay if verdict.action is PacketAction.DELAY else 0.0
    if fault is not None:
        release_delay += fault.extra_delay
    release_time = now + release_delay
    bucket = self._throttle[direction]
    if bucket is not None:
        extra = bucket.delay_until_conformant(packet.wire_size, release_time)
        bucket.consume_at(packet.wire_size, release_time + extra)
        release_time += extra
    self._sim.schedule_at(release_time, lambda: self._forward(packet, direction))
    if fault is not None and fault.duplicate:
        self._sim.schedule_at(
            release_time, lambda: self._forward(packet, direction)
        )
        self._record("middlebox.dup", packet, direction)
    if release_delay > 0:
        self._record(
            "middlebox.delay", packet, direction, ("delay",), (release_delay,)
        )


def reference_merge(self, start, end):
    """``ReassemblyBuffer.merge`` with every arrival through the range list."""
    if end <= start:
        return 0
    if end <= self._rcv_nxt:
        self.duplicate_bytes += end - start
        return 0
    new_bytes = self._insert(max(start, self._rcv_nxt), end)
    if not new_bytes:
        self.duplicate_bytes += end - start
    self._advance()
    return new_bytes


def _fault_config() -> TrialConfig:
    """The robustness study's attacked load at full fault intensity."""
    return TrialConfig(
        adversary=AdversaryConfig(max_drop_retries=2, retry_backoff=0.5),
        faults=noise_schedule(1.0),
        fault_location="both",
        horizon=40.0,
    )


CONFIGS = {
    "table1": lambda: reference_config("table1"),
    "fig6": lambda: reference_config("fig6"),
    "faults": _fault_config,
}


def _observe(monkeypatch, config: TrialConfig, trial: int):
    # Packet ids come from a process-wide counter; restart it so both
    # runs number their packets alike.
    monkeypatch.setattr(packet_module, "_packet_ids", itertools.count(1))
    result = run_trial(trial, VolunteerWorkload(seed=7), config)
    rows = [(record.time, record.category, record.fields) for record in result.trace]
    capture = list(result.topology.middlebox.capture)
    categories = list(result.trace.categories().items())
    summary = json.dumps(
        dataclasses.asdict(summarize_result(result)), sort_keys=True, default=repr
    )
    return (rows, capture, categories, summary), result.topology.sim.events_executed


@pytest.mark.parametrize("transport", ["tcp", "quic"])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_cheaper_events_keep_every_trace_row_and_capture_record(
    monkeypatch, kind, transport
):
    config = replace(CONFIGS[kind](), transport=transport)
    trial = 3 if kind == "fig6" else 1
    observed, events = _observe(monkeypatch, config, trial)
    with monkeypatch.context() as patch:
        patch.setattr(Timer, "start", reference_timer_start)
        patch.setattr(Middlebox, "_ingress", reference_ingress)
        patch.setattr(ReassemblyBuffer, "merge", reference_merge)
        expected, reference_events = _observe(patch, config, trial)
    rows, capture, categories, summary = observed
    expected_rows, expected_capture, expected_categories, expected_summary = expected
    assert len(rows) == len(expected_rows)
    for index, (row, expected_row) in enumerate(zip(rows, expected_rows)):
        assert row == expected_row, f"trace row {index} differs"
    assert capture == expected_capture
    assert categories == expected_categories
    assert summary == expected_summary
    # The shortcuts did run: inline forwards dispatch no event of their own.
    assert events < reference_events
