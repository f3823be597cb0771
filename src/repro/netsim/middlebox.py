"""The programmable on-path middlebox.

This is the device the paper's adversary compromises (the lab gateway).
It forwards packets between a client-side link and a server-side link,
and exposes three actuation surfaces:

* a **filter pipeline** per direction — filters inspect a packet and
  return a verdict (forward / drop / delay by some amount), which is how
  the adversary injects per-request jitter and targeted drops;
* an optional **token-bucket throttle** applied to both directions,
  matching the paper's bandwidth-limitation experiments; and
* a **capture tap** recording every transiting packet for the traffic
  monitor.

Everything is retunable at simulated runtime; the attack state machine
in :mod:`repro.core.adversary` drives these knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Protocol

from repro.netsim.capture import CaptureLog, Direction, PacketRecord
from repro.netsim.faults import FaultInjector
from repro.netsim.link import LinkEnd
from repro.netsim.packet import Packet
from repro.netsim.queue import TokenBucket
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog


class PacketAction(enum.Enum):
    """What a filter wants done with a packet."""

    FORWARD = "forward"
    DROP = "drop"
    DELAY = "delay"


@dataclass(frozen=True)
class Verdict:
    """A filter decision.  ``delay`` is only meaningful for DELAY.

    Verdicts are immutable, so :meth:`forward` and :meth:`drop` hand out
    one shared instance each instead of allocating per packet.
    """

    action: PacketAction
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action is PacketAction.DELAY and self.delay < 0:
            raise ValueError("delay verdict must carry a non-negative delay")

    @classmethod
    def forward(cls) -> "Verdict":
        return _FORWARD

    @classmethod
    def drop(cls) -> "Verdict":
        return _DROP

    @classmethod
    def delayed(cls, seconds: float) -> "Verdict":
        return cls(PacketAction.DELAY, seconds)


_FORWARD = Verdict(PacketAction.FORWARD)
_DROP = Verdict(PacketAction.DROP)

#: Trace field names every middlebox row starts with (see ``_record``),
#: and the names of the extra fields some rows add.
_PACKET_KEYS = ("middlebox", "direction", "packet_id", "size")
_FAULT_KEYS = ("fault",)
_DELAY_KEYS = ("delay",)


class PacketFilter(Protocol):
    """Adversary-installed per-packet decision logic."""

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        """Decide what to do with ``packet`` travelling in ``direction``."""


class _IngressAdapter:
    """The packet handler of one middlebox side: its ``on_packet`` is
    the middlebox's ``_ingress`` bound to the direction that packets
    arriving there travel in, so a delivery is one call."""

    def __init__(self, middlebox: "Middlebox", direction: Direction) -> None:
        self.on_packet = partial(middlebox._ingress, direction)


class Middlebox:
    """Forwards between two links, applying adversary policy."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "gateway",
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._sim = sim
        self.name = name
        self._trace = trace
        self.capture = CaptureLog()
        self._filters: Dict[Direction, List[PacketFilter]] = {
            Direction.CLIENT_TO_SERVER: [],
            Direction.SERVER_TO_CLIENT: [],
        }
        self._throttle: Dict[Direction, Optional[TokenBucket]] = {
            Direction.CLIENT_TO_SERVER: None,
            Direction.SERVER_TO_CLIENT: None,
        }
        self._egress: Dict[Direction, Optional[LinkEnd]] = {
            Direction.CLIENT_TO_SERVER: None,
            Direction.SERVER_TO_CLIENT: None,
        }
        # Chaos layer (repro.netsim.faults): environmental impairments
        # evaluated before the adversary's filter pipeline.
        self._faults: Dict[Direction, Optional[FaultInjector]] = {
            Direction.CLIENT_TO_SERVER: None,
            Direction.SERVER_TO_CLIENT: None,
        }
        self.forwarded = 0
        self.dropped = 0
        self.fault_dropped = 0

    # Wiring -------------------------------------------------------------

    def attach_client_side(self, end: LinkEnd) -> None:
        """Connect the link leading to the client."""
        end.attach(_IngressAdapter(self, Direction.CLIENT_TO_SERVER))
        self._egress[Direction.SERVER_TO_CLIENT] = end

    def attach_server_side(self, end: LinkEnd) -> None:
        """Connect the link leading to the server."""
        end.attach(_IngressAdapter(self, Direction.SERVER_TO_CLIENT))
        self._egress[Direction.CLIENT_TO_SERVER] = end

    # Policy knobs ---------------------------------------------------------

    def add_filter(self, direction: Direction, packet_filter: PacketFilter) -> None:
        """Install a filter at the end of the pipeline for ``direction``."""
        self._filters[direction].append(packet_filter)

    def remove_filter(self, direction: Direction, packet_filter: PacketFilter) -> None:
        """Remove a previously installed filter (ValueError if absent)."""
        self._filters[direction].remove(packet_filter)

    def clear_filters(self, direction: Optional[Direction] = None) -> None:
        """Drop all filters, optionally only for one direction."""
        directions = [direction] if direction else list(Direction)
        for current in directions:
            self._filters[current].clear()

    def install_faults(
        self, direction: Direction, injector: Optional[FaultInjector]
    ) -> None:
        """Bind (or clear, with None) a chaos-layer fault injector.

        Faults act before the filter pipeline — an environmental drop
        happens whether or not the adversary wanted the packet — and
        support effects a :class:`Verdict` cannot express (duplication).
        """
        self._faults[direction] = injector

    def set_bandwidth_limit(
        self, rate_bits_per_second: Optional[float], burst_bytes: int = 64 * 1024
    ) -> None:
        """Throttle both directions (the paper limits both), or lift the
        limit entirely with ``None``."""
        for direction in Direction:
            if rate_bits_per_second is None:
                self._throttle[direction] = None
            else:
                bucket = TokenBucket(rate_bits_per_second, burst_bytes)
                bucket.consume_at(0, self._sim.now)  # sync refill clock
                self._throttle[direction] = bucket

    # Forwarding -----------------------------------------------------------

    def _ingress(self, direction: Direction, packet: Packet) -> None:
        """Tap, filter and release one arriving packet.

        A packet released at once — no fault effect, no filter delay, no
        throttle wait — is forwarded inline when the forward event it
        would need is the one the simulator dispatches next
        (:meth:`~repro.simkernel.simulator.Simulator.runs_next`): the
        same work then happens in the same order, one event sooner.
        Otherwise the forward is scheduled for the release time.
        """
        sim = self._sim
        now = sim.now
        fault = None
        injector = self._faults[direction]
        if injector is not None:
            fault = injector.effect(now)
            if fault.drop:
                # The tap records the packet (it did reach the box) but
                # flags it undelivered, like an adversary drop.
                self.capture.append(
                    PacketRecord.from_packet(
                        now, direction, packet, dropped=True
                    )
                )
                self.dropped += 1
                self.fault_dropped += 1
                self._record(
                    "middlebox.drop.fault", packet, direction,
                    _FAULT_KEYS, (fault.reason,),
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
        if (
            fault is None
            and not release_delay
            and release_time == now
            and sim.runs_next()
        ):
            self._forward(packet, direction)
            return
        forward = partial(self._forward, packet, direction)
        sim.schedule_at(release_time, forward)
        if fault is not None and fault.duplicate:
            sim.schedule_at(release_time, forward)
            self._record("middlebox.dup", packet, direction)
        if release_delay > 0:
            self._record(
                "middlebox.delay", packet, direction,
                _DELAY_KEYS, (release_delay,),
            )

    def _evaluate_filters(
        self, packet: Packet, direction: Direction, now: float
    ) -> Verdict:
        total_delay = 0.0
        for packet_filter in self._filters[direction]:
            verdict = packet_filter.classify(packet, direction, now)
            if verdict.action is PacketAction.DROP:
                return verdict
            if verdict.action is PacketAction.DELAY:
                total_delay += verdict.delay
        if total_delay > 0:
            return Verdict.delayed(total_delay)
        return _FORWARD

    def _forward(self, packet: Packet, direction: Direction) -> None:
        egress = self._egress[direction]
        if egress is None:
            raise RuntimeError(
                f"middlebox {self.name!r}: egress for {direction} not wired"
            )
        self.forwarded += 1
        egress.send(packet)

    def _record(
        self,
        category: str,
        packet: Packet,
        direction: Direction,
        keys: tuple = (),
        values: tuple = (),
    ) -> None:
        if self._trace is not None:
            self._trace.record(
                self._sim.now,
                category,
                _PACKET_KEYS + keys,
                (self.name, direction.value, packet.packet_id, packet.wire_size)
                + values,
            )

    def __repr__(self) -> str:
        return (
            f"Middlebox({self.name!r}, forwarded={self.forwarded}, "
            f"dropped={self.dropped})"
        )
