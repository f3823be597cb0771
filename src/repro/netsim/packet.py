"""Packets on the simulated wire.

A :class:`Packet` wraps one transport segment.  The wire size includes
fixed IP and TCP header overheads so bandwidth and estimator arithmetic
see realistic packet sizes.  The payload (``segment``) is opaque at this
layer; the TCP module defines its structure.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.netsim.address import Endpoint

#: IPv4 header without options.
IP_HEADER_BYTES = 20

#: TCP header without options (the segment model adds option bytes).
TCP_HEADER_BYTES = 20

_packet_ids = itertools.count(1)


class Packet:
    """One IP packet carrying a transport segment.

    A slotted class with one plain ``__init__``: every packet a trial
    sends is built here, so construction does no dataclass machinery.
    Packets compare by identity.

    Attributes:
        src: source endpoint.
        dst: destination endpoint.
        segment: the transport payload (a ``repro.tcp.TCPSegment`` or a
            QUIC datagram, both of which carry ``payload_bytes`` and
            ``option_bytes``), or None for a bare packet.
        packet_id: unique id, assigned automatically.
        created_at: simulated time the packet was created (set by sender).
        payload_bytes: transport payload length in bytes (0 for bare
            ACKs).  Sizes are fixed at creation (the segment never
            changes after the packet is built): every hop, queue and
            capture point reads them.
        header_bytes: IP + TCP header overhead, including TCP option
            bytes.
        wire_size: total bytes this packet occupies on the wire.
    """

    __slots__ = (
        "src", "dst", "segment", "packet_id", "created_at",
        "payload_bytes", "header_bytes", "wire_size",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        segment: Any,
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.segment = segment
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.created_at = created_at
        if segment is None:
            payload = 0
            header = IP_HEADER_BYTES + TCP_HEADER_BYTES
        else:
            payload = segment.payload_bytes
            header = IP_HEADER_BYTES + TCP_HEADER_BYTES + segment.option_bytes
        self.payload_bytes = payload
        self.header_bytes = header
        self.wire_size = header + payload

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.wire_size}B)"
        )
