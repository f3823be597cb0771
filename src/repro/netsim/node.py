"""Hosts: the nodes that terminate links and own protocol stacks."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.netsim.address import Endpoint
from repro.netsim.link import LinkEnd
from repro.netsim.packet import Packet
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog

#: Trace field names of the ``host.unrouted`` row.
_UNROUTED_KEYS = ("host", "dst")


class PacketHandler(Protocol):
    """Anything that can receive a packet from a link end."""

    def on_packet(self, packet: Packet) -> None:
        """Handle one arriving packet."""


class Host:
    """A network host with one attached link end and a port demux.

    Transport endpoints (TCP connections / listeners) register a
    receiver callable per local port; arriving packets are dispatched by
    destination port.  Packets for unknown ports are counted and
    dropped — the simulated equivalent of a RST-less ignore.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._sim = sim
        self.name = name
        self._trace = trace
        self._link_end: Optional[LinkEnd] = None
        self._receivers: Dict[int, Callable[[Packet], None]] = {}
        self.unrouted_packets = 0

    @property
    def sim(self) -> Simulator:
        return self._sim

    def attach_link(self, end: LinkEnd) -> None:
        """Connect this host to a link end (one per host in this model)."""
        if self._link_end is not None:
            raise RuntimeError(f"host {self.name!r} already attached to a link")
        self._link_end = end
        end.attach(self)

    def endpoint(self, port: int) -> Endpoint:
        """An :class:`Endpoint` naming this host at ``port``."""
        return Endpoint(self.name, port)

    def bind(self, port: int, receiver: Callable[[Packet], None]) -> None:
        """Register a transport receiver for a local port.

        Raises:
            RuntimeError: if the port is already bound.
        """
        if port in self._receivers:
            raise RuntimeError(f"port {port} already bound on host {self.name!r}")
        self._receivers[port] = receiver

    def unbind(self, port: int) -> None:
        """Release a bound port; unknown ports are ignored."""
        self._receivers.pop(port, None)

    def send(self, packet: Packet) -> None:
        """Transmit a packet onto the attached link."""
        if self._link_end is None:
            raise RuntimeError(f"host {self.name!r} has no attached link")
        packet.created_at = self._sim.now
        self._link_end.send(packet)

    def on_packet(self, packet: Packet) -> None:
        """Link-end delivery entry point: dispatch by destination port."""
        receiver = self._receivers.get(packet.dst.port)
        if receiver is None:
            self.unrouted_packets += 1
            if self._trace is not None:
                self._trace.record(
                    self._sim.now,
                    "host.unrouted",
                    _UNROUTED_KEYS,
                    (self.name, str(packet.dst)),
                )
            return
        receiver(packet)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, ports={sorted(self._receivers)})"
