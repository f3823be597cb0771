"""The per-packet objects keep their contract as slotted classes.

Every packet a trial sends builds a segment or datagram, and most build
TLS records, stream spans and HPACK fields too, so these classes are
slotted with a plain ``__init__`` (or are named tuples) instead of
dataclasses.  This module pins what callers rely on: no instance
``__dict__``, the constructors' checks, record ids and wire lengths,
value equality where it existed, and the tap's records.
"""

from __future__ import annotations

import pytest

from repro.hpack.codec import HeaderBlock, HpackEncoder, _Instruction
from repro.hpack.table import STATIC_TABLE, HeaderField
from repro.netsim.address import Endpoint
from repro.netsim.capture import Direction, PacketRecord
from repro.netsim.packet import Packet
from repro.tcp.segment import FLAGS_ACK, FLAGS_FIN_ACK, TCPSegment
from repro.tls.cipher import AES_128_GCM_TLS13
from repro.tls.record import (
    APPLICATION_DATA,
    HANDSHAKE,
    TLS_RECORD_HEADER_BYTES,
    TLSRecord,
)
from repro.transport.quic import FLAGS_ONE_RTT, QuicDatagram
from repro.transport.stream import MessageSpan, StreamLayout

CLIENT = Endpoint("client", 1)
SERVER = Endpoint("server", 2)


def _instances():
    layout = StreamLayout()
    record = TLSRecord(APPLICATION_DATA, 100)
    span = layout.append(record)
    block = HpackEncoder().encode([(":method", "GET"), ("x-a", "b")])
    segment = TCPSegment(0, 0, FLAGS_ACK, span.length, layout=layout)
    return {
        "TCPSegment": segment,
        "TLSRecord": record,
        "MessageSpan": span,
        "HeaderField": HeaderField("x-a", "b"),
        "_Instruction": block.instructions[0],
        "HeaderBlock": block,
        "QuicDatagram": QuicDatagram(0, 0, 0, FLAGS_ONE_RTT, 0, 12, 1 << 20),
        "Packet": Packet(CLIENT, SERVER, segment),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_packet_path_classes_are_slotted(name):
    instance = _instances()[name]
    assert type(instance).__name__ == name
    assert "__slots__" in vars(type(instance))
    assert not hasattr(instance, "__dict__")


# -- TCPSegment ----------------------------------------------------------------

def test_segment_rejects_a_negative_payload():
    with pytest.raises(ValueError, match="non-negative"):
        TCPSegment(0, 0, FLAGS_ACK, -1, layout=StreamLayout())


def test_segment_rejects_data_without_a_layout():
    with pytest.raises(ValueError, match="stream layout"):
        TCPSegment(0, 0, FLAGS_ACK, 10)


def test_segment_keyword_and_positional_builds_agree():
    layout = StreamLayout()
    keyword = TCPSegment(
        seq=5, ack=7, flags=FLAGS_FIN_ACK, payload_bytes=3, window=9,
        option_bytes=22, layout=layout, tls_records=("r",),
        is_retransmission=True, sack_blocks=((20, 30),),
    )
    positional = TCPSegment(
        5, 7, FLAGS_FIN_ACK, 3, 9, 22, layout, ("r",), True, ((20, 30),)
    )
    for attribute in TCPSegment.__slots__:
        assert getattr(keyword, attribute) == getattr(positional, attribute)
    default = TCPSegment(0, 0, FLAGS_ACK)
    assert (default.payload_bytes, default.window, default.option_bytes) == (
        0, 1 << 20, 12,
    )
    assert default.layout is None
    assert default.tls_records == () and default.sack_blocks == ()
    assert default.is_retransmission is False


# -- TLSRecord -----------------------------------------------------------------

def test_record_ids_are_consecutive_per_construction():
    first = TLSRecord(HANDSHAKE, 10)
    second = TLSRecord(APPLICATION_DATA, 20)
    with pytest.raises(ValueError):
        TLSRecord(APPLICATION_DATA, 0)  # rejected, but it drew an id
    fourth = TLSRecord(APPLICATION_DATA, 30)
    assert second.record_id == first.record_id + 1
    assert fourth.record_id == second.record_id + 2


@pytest.mark.parametrize("plaintext", [1, 1000, 16384])
def test_record_wire_length_is_header_plus_ciphertext(plaintext):
    for record in (
        TLSRecord(APPLICATION_DATA, plaintext),
        TLSRecord(APPLICATION_DATA, plaintext, cipher=AES_128_GCM_TLS13),
    ):
        assert record.wire_length == (
            TLS_RECORD_HEADER_BYTES
            + record.cipher.ciphertext_length(plaintext)
        )


@pytest.mark.parametrize("content_type, plaintext", [
    (APPLICATION_DATA, 0), (APPLICATION_DATA, 16385), (99, 10),
])
def test_record_rejects_bad_arguments(content_type, plaintext):
    with pytest.raises(ValueError):
        TLSRecord(content_type, plaintext)


def test_records_compare_by_identity():
    record = TLSRecord(APPLICATION_DATA, 10)
    assert record == record
    assert record != TLSRecord(APPLICATION_DATA, 10)
    assert len({record, record}) == 1


# -- HeaderField, MessageSpan, HeaderBlock ---------------------------------------

def test_header_field_equality_hashing_and_immutability():
    field = HeaderField(":method", "GET")
    assert field == STATIC_TABLE[1]
    assert hash(field) == hash(STATIC_TABLE[1])
    assert field != HeaderField(":method", "POST")
    assert HeaderField("accept") == HeaderField("accept", "")
    assert field.table_size == len(":method") + len("GET") + 32
    assert len({field, HeaderField(":method", "GET")}) == 1
    with pytest.raises(AttributeError):
        field.value = "PUT"


def test_message_span_equality_hashing_and_immutability():
    message = object()
    span = MessageSpan(10, 25, message)
    twin = MessageSpan(10, 25, message)
    assert span == twin and hash(span) == hash(twin)
    assert span != MessageSpan(10, 25, object())
    assert span != MessageSpan(10, 26, message)
    assert span.length == 15
    with pytest.raises(AttributeError):
        span.end = 30


def test_header_blocks_compare_by_value():
    headers = [(":method", "GET"), ("x-custom", "a")]
    block = HpackEncoder().encode(headers)
    assert block == HpackEncoder().encode(headers)
    assert hash(block) == hash(HpackEncoder().encode(headers))
    assert block.instructions[1] == _Instruction(
        "literal_indexed", 0, HeaderField("x-custom", "a"),
        block.instructions[1].octets,
    )
    assert block != HeaderBlock(block.instructions, block.encoded_length + 1)
    with pytest.raises(AttributeError):
        block.encoded_length = 0


# -- PacketRecord.from_packet ----------------------------------------------------

def _data_packet():
    layout = StreamLayout(initial_seq=1000)
    first = TLSRecord(HANDSHAKE, 40)
    second = TLSRecord(APPLICATION_DATA, 300)
    layout.append(first)
    layout.append(second)
    segment = TCPSegment(
        1000, 2000, FLAGS_ACK, first.wire_length + second.wire_length,
        layout=layout, tls_records=(first, second),
    )
    return Packet(SERVER, CLIENT, segment, packet_id=11)


def _pure_ack():
    return Packet(CLIENT, SERVER, TCPSegment(100, 200, FLAGS_ACK), packet_id=12)


def _quic_datagram():
    record = TLSRecord(APPLICATION_DATA, 500)
    datagram = QuicDatagram(
        3, 4096, 2, FLAGS_ONE_RTT, record.wire_length, 12, 1 << 20,
        tls_records=(record,),
    )
    return Packet(SERVER, CLIENT, datagram, packet_id=13)


def _bare_packet():
    return Packet(CLIENT, SERVER, None, packet_id=14)


@pytest.mark.parametrize("build", [
    _data_packet, _pure_ack, _quic_datagram, _bare_packet,
], ids=["data", "pure-ack", "quic-datagram", "no-segment"])
@pytest.mark.parametrize("dropped", [False, True])
def test_from_packet_equals_the_keyword_built_record(build, dropped):
    packet = build()
    segment = packet.segment
    if segment is None:
        fields = dict(flags=(), seq=0, ack=0, tls_content_types=(),
                      tls_record_lengths=())
    else:
        fields = dict(
            flags=tuple(sorted(segment.flags)),
            seq=segment.seq,
            ack=segment.ack,
            tls_content_types=tuple(
                record.content_type for record in segment.tls_records
            ),
            tls_record_lengths=tuple(
                record.wire_length for record in segment.tls_records
            ),
        )
    expected = PacketRecord(
        time=2.5, direction=Direction.SERVER_TO_CLIENT,
        packet_id=packet.packet_id, wire_size=packet.wire_size,
        payload_bytes=packet.payload_bytes, dropped_by_adversary=dropped,
        **fields,
    )
    record = PacketRecord.from_packet(
        2.5, Direction.SERVER_TO_CLIENT, packet, dropped=dropped
    )
    assert type(record) is PacketRecord
    assert record == expected
    assert tuple(record) == tuple(expected)
    assert record.is_application_data == expected.is_application_data
    assert record.is_application_stream == expected.is_application_stream
