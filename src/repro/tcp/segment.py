"""TCP segments.

A segment names a half-open range ``[seq, seq + payload_bytes)`` of the
sender's sequence space.  Instead of carrying bytes it carries a
reference to the sender's :class:`~repro.transport.stream.StreamLayout`, which
maps sequence ranges back to application messages — the simulated
equivalent of the byte stream describing itself.  ``tls_records`` lists
the TLS record headers that *begin* inside the segment, which is
exactly the per-packet information tshark surfaces to the adversary.

Flag sets are interned: the handful of combinations TCP actually uses
(pure ACK, SYN, SYN|ACK, FIN|ACK, RST|ACK) are shared module-level
``frozenset`` constants, so the per-segment hot path — one segment per
delivered packet, hundreds of thousands per experiment — never
allocates a fresh set.  Use :func:`flag_set` to normalize any custom
combination to its interned instance.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Optional, Tuple

SYN = "SYN"
ACK = "ACK"
FIN = "FIN"
RST = "RST"

#: Interned flag combinations — the ones the state machine emits.
FLAGS_NONE: FrozenSet[str] = frozenset()
FLAGS_SYN: FrozenSet[str] = frozenset({SYN})
FLAGS_ACK: FrozenSet[str] = frozenset({ACK})
FLAGS_FIN: FrozenSet[str] = frozenset({FIN})
FLAGS_RST: FrozenSet[str] = frozenset({RST})
FLAGS_SYN_ACK: FrozenSet[str] = frozenset({SYN, ACK})
FLAGS_FIN_ACK: FrozenSet[str] = frozenset({FIN, ACK})
FLAGS_RST_ACK: FrozenSet[str] = frozenset({RST, ACK})

#: Intern table: frozenset → its canonical instance.  At most 16
#: combinations of the four flags exist, so the table never grows
#: beyond that.
_INTERNED = {
    flags: flags
    for flags in (
        FLAGS_NONE, FLAGS_SYN, FLAGS_ACK, FLAGS_FIN, FLAGS_RST,
        FLAGS_SYN_ACK, FLAGS_FIN_ACK, FLAGS_RST_ACK,
    )
}


def flag_set(flags: Iterable[str]) -> FrozenSet[str]:
    """Normalize a flag iterable to its interned ``frozenset``.

    Already-interned frozensets are returned as-is without rehashing a
    new set; novel combinations are interned on first use so repeated
    emissions share one instance.
    """
    if type(flags) is frozenset:
        cached = _INTERNED.get(flags)
        if cached is not None:
            return cached
        _INTERNED[flags] = flags
        return flags
    frozen = frozenset(flags)
    cached = _INTERNED.get(frozen)
    if cached is not None:
        return cached
    _INTERNED[frozen] = frozen
    return frozen


class TCPSegment:
    """One TCP segment (header plus symbolic payload).

    A slotted class with one plain ``__init__``, like
    :class:`~repro.netsim.packet.Packet`: every packet a trial sends
    carries one, so construction does no dataclass machinery.  Segments
    compare by identity.

    Attributes:
        seq, ack: sequence and acknowledgement numbers.
        flags: control flags (an interned ``frozenset``, see
            :func:`flag_set`).
        payload_bytes: payload length; a data segment (non-zero length)
            must reference ``layout``.
        window: advertised receive window.
        option_bytes: TCP option bytes counted into the header.
        layout: the sender's :class:`~repro.transport.stream.StreamLayout`.
        tls_records: TLS records *starting* in this segment.
        is_retransmission: True for a resend of already-sent bytes.
        sack_blocks: the receiver's out-of-order ranges (up to 3, as the
            option space allows); empty when SACK is off or unnecessary.

    Raises:
        ValueError: for a negative payload length, or a data segment
            without a layout.
    """

    __slots__ = (
        "seq", "ack", "flags", "payload_bytes", "window", "option_bytes",
        "layout", "tls_records", "is_retransmission", "sack_blocks",
    )

    def __init__(
        self,
        seq: int,
        ack: int,
        flags: FrozenSet[str],
        payload_bytes: int = 0,
        window: int = 1 << 20,
        option_bytes: int = 12,
        layout: Optional[Any] = None,
        tls_records: Tuple[Any, ...] = (),
        is_retransmission: bool = False,
        sack_blocks: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        # Single branch on the common pure-ACK path (payload_bytes == 0).
        if payload_bytes != 0:
            if payload_bytes < 0:
                raise ValueError("payload length must be non-negative")
            if layout is None:
                raise ValueError("data segments must reference a stream layout")
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_bytes = payload_bytes
        self.window = window
        self.option_bytes = option_bytes
        self.layout = layout
        self.tls_records = tls_records
        self.is_retransmission = is_retransmission
        self.sack_blocks = sack_blocks

    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment's payload."""
        return self.seq + self.payload_bytes

    def has(self, flag: str) -> bool:
        """True when the given control flag is set."""
        return flag in self.flags

    @property
    def is_pure_ack(self) -> bool:
        """True for a dataless segment whose only job is acknowledging."""
        return self.payload_bytes == 0 and self.flags == FLAGS_ACK

    def __repr__(self) -> str:
        flag_str = "|".join(sorted(self.flags)) or "-"
        retx = " retx" if self.is_retransmission else ""
        return (
            f"TCPSegment(seq={self.seq}, ack={self.ack}, {flag_str}, "
            f"len={self.payload_bytes}{retx})"
        )
