"""Packet capture at the middlebox — the adversary's eyes.

Mirrors what the paper's gateway saw with tshark: for every transiting
packet, its timestamp, direction, wire size, the *unencrypted* TCP
header fields, and the TLS record content types (also sent in the
clear).  Payload plaintext is never exposed; the estimator works purely
from these records, like the paper's
``ssl.record.content_type==23`` display filter.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

from repro.netsim.packet import Packet


class Direction(enum.Enum):
    """Which way a packet was travelling through the middlebox."""

    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"

    #: Members are singletons and compare by identity, so the C-level
    #: identity hash is consistent with equality; it spares the
    #: middlebox's per-direction dicts ``Enum.__hash__`` (a Python call)
    #: on every packet.
    __hash__ = object.__hash__

    def opposite(self) -> "Direction":
        if self is Direction.CLIENT_TO_SERVER:
            return Direction.SERVER_TO_CLIENT
        return Direction.CLIENT_TO_SERVER


class PacketRecord(NamedTuple):
    """One captured packet, as visible to an on-path observer.

    A named tuple: the tap builds one per transiting packet, so the
    record costs one tuple allocation.  It is immutable and hashable,
    and compares equal to a plain tuple of its field values.
    """

    time: float
    direction: Direction
    packet_id: int
    wire_size: int
    payload_bytes: int
    flags: Tuple[str, ...]
    seq: int
    ack: int
    tls_content_types: Tuple[int, ...]
    #: Wire length of each TLS record *starting* in this packet,
    #: aligned with ``tls_content_types``.  The 5-byte record header
    #: travels in the clear, so an on-path observer reads the length
    #: field as freely as the content type — this is the raw material
    #: of the :mod:`repro.infer` feature extractor and of the padding
    #: regression assertions.
    tls_record_lengths: Tuple[int, ...] = ()
    dropped_by_adversary: bool = False

    @property
    def is_application_data(self) -> bool:
        """True when the packet carries TLS application data (type 23)."""
        return 23 in self.tls_content_types

    @property
    def is_application_stream(self) -> bool:
        """True for packets belonging to the application-data stream.

        A TLS record spans multiple TCP segments; only the first
        carries the (cleartext) record header.  Continuation packets
        expose no content type, but an observer summing a burst's bytes
        must include them: any non-empty packet that does not start a
        *non*-application record counts.
        """
        if self.payload_bytes <= 0:
            return False
        return all(ct == 23 for ct in self.tls_content_types)

    @classmethod
    def from_packet(
        cls,
        time: float,
        direction: Direction,
        packet: Packet,
        dropped: bool = False,
    ) -> "PacketRecord":
        """Build a record from a live packet (headers only).

        A segment's flags are an interned ``frozenset``; each one is
        sorted once and the tuple reused.  Most packets start no TLS
        record, so their content-type and length tuples are the empty
        tuple without a pass over the records.
        """
        segment = packet.segment
        if segment is None:
            return cls(
                time, direction, packet.packet_id, packet.wire_size,
                packet.payload_bytes, (), 0, 0, (), (), dropped,
            )
        flags = segment.flags
        sorted_flags = _SORTED_FLAGS.get(flags)
        if sorted_flags is None:
            sorted_flags = _SORTED_FLAGS[flags] = tuple(sorted(flags))
        records = segment.tls_records
        if records:
            # A message that is not a TLS record (a bare test payload)
            # shows type 0 and length 0.
            content_types = tuple(
                [int(getattr(rec, "content_type", 0)) for rec in records]
            )
            lengths = tuple(
                [int(getattr(rec, "wire_length", 0)) for rec in records]
            )
        else:
            content_types = lengths = ()
        return cls(
            time,
            direction,
            packet.packet_id,
            packet.wire_size,
            packet.payload_bytes,
            sorted_flags,
            segment.seq,
            segment.ack,
            content_types,
            lengths,
            dropped,
        )


#: Flag set → its sorted tuple (the interned TCP and QUIC flag sets).
_SORTED_FLAGS: Dict[FrozenSet[str], Tuple[str, ...]] = {}


class CaptureLog:
    """An append-only list of :class:`PacketRecord` with query helpers."""

    def __init__(self) -> None:
        self._records: List[PacketRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def append(self, record: PacketRecord) -> None:
        self._records.append(record)

    def in_direction(
        self, direction: Direction, include_dropped: bool = False
    ) -> List[PacketRecord]:
        """Records for one direction, excluding adversary-dropped packets
        by default (they never reached the far side)."""
        return [
            record
            for record in self._records
            if record.direction is direction
            and (include_dropped or not record.dropped_by_adversary)
        ]

    def application_data(
        self, direction: Optional[Direction] = None
    ) -> List[PacketRecord]:
        """TLS application-data records (the ``content_type==23`` filter)."""
        return [
            record
            for record in self._records
            if record.is_application_data
            and not record.dropped_by_adversary
            and (direction is None or record.direction is direction)
        ]

    def record_length_sequence(
        self, direction: Direction
    ) -> List[Tuple[float, int]]:
        """(time, wire length) of every observed application-data record.

        The cleartext record headers make each record's length visible
        to the on-path observer the moment its first byte transits —
        the input of :func:`repro.infer.features.capture_record_sequence`
        and of the padding regression assertions.
        """
        sequence: List[Tuple[float, int]] = []
        for record in self.in_direction(direction):
            for content_type, wire_length in zip(
                record.tls_content_types, record.tls_record_lengths
            ):
                if content_type == 23:
                    sequence.append((record.time, wire_length))
        return sequence

    def since(self, time: float) -> "CaptureLog":
        """A new log holding only records at or after ``time``."""
        clipped = CaptureLog()
        clipped._records = [r for r in self._records if r.time >= time]
        return clipped

    def clear(self) -> None:
        self._records.clear()
