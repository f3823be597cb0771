"""Unit tests for packets, addresses, and queueing primitives."""

import pytest

from repro.netsim.address import Endpoint
from repro.netsim.packet import IP_HEADER_BYTES, TCP_HEADER_BYTES, Packet
from repro.netsim.queue import DropTailQueue, TokenBucket
from repro.simkernel.units import MBPS
from repro.tcp.segment import ACK, TCPSegment
from repro.transport.stream import StreamLayout


# -- Endpoint ---------------------------------------------------------------

def test_endpoint_str():
    assert str(Endpoint("server", 443)) == "server:443"


def test_endpoint_port_validation():
    with pytest.raises(ValueError):
        Endpoint("h", 0)
    with pytest.raises(ValueError):
        Endpoint("h", 70000)


def test_endpoint_empty_host():
    with pytest.raises(ValueError):
        Endpoint("", 80)


def test_endpoint_hashable_and_equal():
    assert Endpoint("h", 1) == Endpoint("h", 1)
    assert len({Endpoint("h", 1), Endpoint("h", 1)}) == 1


# -- Packet -----------------------------------------------------------------

def _data_segment(length: int) -> TCPSegment:
    layout = StreamLayout()

    class _Msg:
        wire_length = length

    layout.append(_Msg())
    return TCPSegment(
        seq=0, ack=0, flags=frozenset({ACK}), payload_bytes=length,
        layout=layout,
    )


def test_packet_wire_size_includes_headers():
    packet = Packet(Endpoint("a", 1), Endpoint("b", 2), _data_segment(100))
    assert packet.wire_size == IP_HEADER_BYTES + TCP_HEADER_BYTES + 12 + 100


def test_packet_ids_unique():
    a = Packet(Endpoint("a", 1), Endpoint("b", 2), None)
    b = Packet(Endpoint("a", 1), Endpoint("b", 2), None)
    assert a.packet_id != b.packet_id


def test_bare_ack_packet_payload_zero():
    packet = Packet(Endpoint("a", 1), Endpoint("b", 2), None)
    assert packet.payload_bytes == 0


# -- DropTailQueue ------------------------------------------------------------

def test_droptail_fifo_order():
    queue = DropTailQueue(capacity=3)
    for item in "abc":
        assert queue.push(item)
    assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]


def test_droptail_drops_when_full():
    queue = DropTailQueue(capacity=1)
    assert queue.push("a")
    assert not queue.push("b")
    assert queue.drops == 1


def test_droptail_pop_empty_returns_none():
    assert DropTailQueue(capacity=1).pop() is None


def test_droptail_invalid_capacity():
    with pytest.raises(ValueError):
        DropTailQueue(capacity=0)


# -- TokenBucket ---------------------------------------------------------------

def test_token_bucket_burst_passes_immediately():
    bucket = TokenBucket(8 * MBPS, burst_bytes=10_000)
    assert bucket.try_consume(10_000, now=0.0)
    assert not bucket.try_consume(1, now=0.0)


def test_token_bucket_refills_over_time():
    bucket = TokenBucket(8 * MBPS, burst_bytes=1_000)  # 1 MB/s
    assert bucket.try_consume(1_000, now=0.0)
    assert bucket.try_consume(500, now=0.0005)  # 0.5 ms → 500 B refilled


def test_token_bucket_delay_until_conformant():
    bucket = TokenBucket(8 * MBPS, burst_bytes=1_000)  # 1 MB/s
    bucket.consume_at(1_000, 0.0)
    delay = bucket.delay_until_conformant(500, now=0.0)
    assert delay == pytest.approx(0.0005)


def test_token_bucket_conformant_now_returns_zero():
    bucket = TokenBucket(8 * MBPS, burst_bytes=1_000)
    assert bucket.delay_until_conformant(100, now=0.0) == 0.0


def test_token_bucket_set_rate():
    bucket = TokenBucket(8 * MBPS, burst_bytes=1_000)
    bucket.set_rate(16 * MBPS, now=0.0)
    assert bucket.rate_bits_per_second == 16 * MBPS


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(8 * MBPS, burst_bytes=1_000)
    assert not bucket.try_consume(2_000, now=100.0)
    assert bucket.try_consume(1_000, now=100.0)


def test_token_bucket_invalid_burst():
    with pytest.raises(ValueError):
        TokenBucket(8 * MBPS, burst_bytes=0)
