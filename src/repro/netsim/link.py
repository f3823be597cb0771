"""Full-duplex point-to-point links.

Each direction has its own serialization pipeline: packets queue in a
drop-tail transmit buffer, are clocked out at the link rate, then
experience propagation delay plus (optionally) random jitter and random
loss.  Delivery order is FIFO per direction unless ``reorder_allowed``
is set — real networks reorder under jitter, but the paper's adversary
injects its jitter at the middlebox, so links default to in-order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.netsim.faults import FaultEffect, FaultInjector, FaultSchedule
from repro.netsim.packet import Packet
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog
from repro.simkernel.units import MBPS

#: Trace field names every link row starts with (see ``Link._record``),
#: and the names of the extra fields some rows add.
_PACKET_KEYS = ("link", "direction", "packet_id", "size")
_SEND_KEYS = _PACKET_KEYS + ("arrival",)
_FAULT_KEYS = ("fault",)
_DUP_KEYS = ("arrival",)


@dataclass
class LinkConfig:
    """Static parameters of one link.

    Attributes:
        bandwidth_bps: link rate in bits per second.
        propagation_delay: one-way latency in seconds.
        jitter: maximum extra random delay per packet, in seconds
            (uniform in ``[0, jitter]``); 0 disables jitter.
        loss_rate: independent per-packet drop probability in ``[0, 1)``.
        queue_capacity: transmit buffer size in packets.
    """

    bandwidth_bps: float = 1000 * MBPS
    propagation_delay: float = 0.005
    jitter: float = 0.0
    loss_rate: float = 0.0
    queue_capacity: int = 1000

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss rate must be in [0, 1)")


class LinkEnd:
    """One end of a link; nodes hold this and call :meth:`send`."""

    def __init__(self, link: "Link", index: int) -> None:
        self._link = link
        self._index = index
        self.handler = None  # PacketHandler, attached by the node

    def attach(self, handler) -> None:
        """Bind the node (or middlebox) that receives from this end."""
        self.handler = handler

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` toward the opposite end."""
        self._link._transmit(packet, self._index)

    @property
    def link(self) -> "Link":
        return self._link


class _DirectionState:
    """Per-direction serialization state."""

    __slots__ = (
        "busy_until", "last_arrival", "queued", "sent", "dropped",
        "fault_dropped", "duplicated",
    )

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.last_arrival = 0.0
        self.queued = 0
        self.sent = 0
        self.dropped = 0
        self.fault_dropped = 0
        self.duplicated = 0


class Link:
    """A bidirectional link between two :class:`LinkEnd` holders."""

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        rng: Optional[RandomStreams] = None,
        trace: Optional[TraceLog] = None,
        name: str = "link",
        reorder_allowed: bool = False,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if config.loss_rate > 0 and rng is None:
            raise ValueError(
                f"link {name!r}: loss_rate={config.loss_rate} requires an "
                "rng — without one the link would silently never drop"
            )
        if config.jitter > 0 and rng is None:
            raise ValueError(
                f"link {name!r}: jitter={config.jitter} requires an "
                "rng — without one the link would silently never jitter"
            )
        if faults and rng is None:
            raise ValueError(
                f"link {name!r}: a FaultSchedule requires an rng"
            )
        self._sim = sim
        self.config = config
        self._trace = trace
        self.name = name
        self.reorder_allowed = reorder_allowed
        self.a = LinkEnd(self, 0)
        self.b = LinkEnd(self, 1)
        self._directions = (_DirectionState(), _DirectionState())
        # Chaos layer: one independent fault realization per direction
        # (see repro.netsim.faults).  None ⇒ the packet path is exactly
        # the pre-fault-layer code path.
        self._fault_injectors: Optional[tuple] = None
        if faults:
            self._fault_injectors = (
                faults.bind(rng, f"{name}.faults.ab"),
                faults.bind(rng, f"{name}.faults.ba"),
            )
        # Hoisted per-packet constants: dividing by a precomputed
        # bytes-per-second value is bit-identical to transmission_delay()
        # (which computes size / (bps / 8.0) on every call).
        self._bytes_per_second = config.bandwidth_bps / 8.0
        # The loss and jitter substreams, resolved once.  A substream is
        # seeded from its name alone, so resolving it early draws
        # nothing; a link without the setting never creates one.
        self._loss_rate = config.loss_rate
        self._loss_stream = (
            rng.stream(f"{name}.loss") if config.loss_rate > 0 else None
        )
        self._jitter = config.jitter
        self._jitter_stream = (
            rng.stream(f"{name}.jitter") if config.jitter > 0 else None
        )

    def _transmit(self, packet: Packet, from_index: int) -> None:
        direction = self._directions[from_index]
        now = self._sim.now
        busy_until = direction.busy_until

        # Chaos layer: consult the direction's fault injector before the
        # intrinsic loss/queue model (an outage beats a clean queue).
        effect: Optional[FaultEffect] = None
        if self._fault_injectors is not None:
            effect = self._fault_injectors[from_index].effect(now)
            if effect.drop:
                direction.dropped += 1
                direction.fault_dropped += 1
                self._record(
                    "link.drop.fault", packet, from_index,
                    _FAULT_KEYS, (effect.reason,),
                )
                return
            if not effect.any:
                effect = None

        # Transmit-buffer occupancy model: packets whose serialization
        # has not started yet count against the queue capacity.
        backlog_time = busy_until - now
        serialization = packet.wire_size / self._bytes_per_second
        if effect is not None and effect.capacity_factor != 1.0:
            serialization /= effect.capacity_factor
        backlog_packets = (
            int(backlog_time / serialization)
            if backlog_time > 0.0 and serialization > 0
            else 0
        )
        if backlog_packets >= self.config.queue_capacity:
            direction.dropped += 1
            self._record("link.drop.queue", packet, from_index)
            return

        loss_stream = self._loss_stream
        if loss_stream is not None and loss_stream.random() < self._loss_rate:
            direction.dropped += 1
            self._record("link.drop.loss", packet, from_index)
            return

        start = now if now > busy_until else busy_until
        busy_until = start + serialization
        direction.busy_until = busy_until
        jitter_stream = self._jitter_stream
        arrival = busy_until + self.config.propagation_delay + (
            jitter_stream.uniform(0.0, self._jitter)
            if jitter_stream is not None
            else 0.0
        )
        allow_reorder = self.reorder_allowed
        if effect is not None:
            arrival += effect.extra_delay
            allow_reorder = allow_reorder or effect.allow_reorder
        if not allow_reorder and arrival < direction.last_arrival:
            arrival = direction.last_arrival
        if arrival > direction.last_arrival:
            direction.last_arrival = arrival
        direction.sent += 1

        # The receiving end's handler is looked up at delivery, not now.
        to_end = self.b if from_index == 0 else self.a
        deliver = partial(self._deliver, to_end, packet)
        self._sim.schedule_at(arrival, deliver)
        if effect is not None and effect.duplicate:
            # A duplicated packet follows its original back-to-back.
            dup_arrival = arrival + serialization
            if not allow_reorder and dup_arrival < direction.last_arrival:
                dup_arrival = direction.last_arrival
            if dup_arrival > direction.last_arrival:
                direction.last_arrival = dup_arrival
            direction.duplicated += 1
            self._sim.schedule_at(dup_arrival, deliver)
            self._record(
                "link.dup", packet, from_index, _DUP_KEYS, (dup_arrival,)
            )
        trace = self._trace
        if trace is not None:
            trace.record(
                now,
                "link.send",
                _SEND_KEYS,
                (self.name, from_index, packet.packet_id, packet.wire_size,
                 arrival),
            )

    def _deliver(self, end: LinkEnd, packet: Packet) -> None:
        if end.handler is None:
            raise RuntimeError(
                f"link {self.name!r}: no handler attached at receiving end"
            )
        end.handler.on_packet(packet)

    def _record(
        self,
        category: str,
        packet: Packet,
        from_index: int,
        keys: tuple = (),
        values: tuple = (),
    ) -> None:
        if self._trace is not None:
            self._trace.record(
                self._sim.now,
                category,
                _PACKET_KEYS + keys,
                (self.name, from_index, packet.packet_id, packet.wire_size)
                + values,
            )

    def stats(self, from_index: int) -> dict:
        """Counters for one direction (0 = a→b, 1 = b→a)."""
        direction = self._directions[from_index]
        return {
            "sent": direction.sent,
            "dropped": direction.dropped,
            "fault_dropped": direction.fault_dropped,
            "duplicated": direction.duplicated,
            "busy_until": direction.busy_until,
        }

    def fault_injector(self, from_index: int) -> Optional[FaultInjector]:
        """The bound chaos-layer injector for one direction, if any."""
        if self._fault_injectors is None:
            return None
        return self._fault_injectors[from_index]

    def __repr__(self) -> str:
        return f"Link({self.name!r}, {self.config.bandwidth_bps / MBPS:.0f} Mbps)"
