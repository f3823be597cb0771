"""Property-based tests for QUIC acknowledgement ranges.

``_ack_ranges`` promises a sorted, strictly disjoint range list and
``_handle_acks`` bisects on that promise; both are checked here against
brute force over random packet-number patterns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.netsim.topology import build_adversary_path
from repro.transport.quic import (
    FLAGS_ACK,
    QuicConnection,
    QuicDatagram,
    QuicState,
    _SentPacket,
)


def _connection():
    topology = build_adversary_path(seed=1)
    return QuicConnection(
        topology.sim, topology.client, 50_000, topology.server.endpoint(443)
    )


@st.composite
def disjoint_ranges(draw):
    """Sorted, disjoint ``[start, end)`` ranges over packet numbers."""
    bounds = sorted(draw(st.sets(st.integers(0, 600), max_size=120)))
    if len(bounds) % 2:
        bounds.pop()
    return tuple(zip(bounds[::2], bounds[1::2]))


@given(
    st.sets(st.integers(0, 600), min_size=1, max_size=200),
    disjoint_ranges(),
)
@settings(max_examples=300)
def test_handle_acks_selects_exactly_the_covered_packets(sent_pns, ack_ranges):
    connection = _connection()
    records = {
        pn: _SentPacket((), 0, 0.0, False) for pn in sorted(sent_pns)
    }
    connection._sent = dict(records)
    connection._handle_acks(ack_ranges)
    expected = {
        pn for pn in sent_pns
        if any(start <= pn < end for start, end in ack_ranges)
    }
    assert {pn for pn, record in records.items() if record.acked} == expected
    assert connection._largest_acked == max(expected, default=-1)


@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=300),
)
@settings(max_examples=300)
def test_ack_ranges_sorted_and_disjoint_under_any_arrival_order(arrivals):
    """Feed pure-ACK datagrams in any order, duplicates included."""
    connection = _connection()
    connection.state = QuicState.ESTABLISHED
    connection._pn_buffer.receive(0, 1)  # the handshake's packet 0
    peer = connection.remote
    for pn in arrivals:
        datagram = QuicDatagram(pn, 0, 0, FLAGS_ACK, 0, 12, 1 << 20)
        connection.handle_packet(
            Packet(src=peer, dst=connection.local, segment=datagram)
        )
        ranges = connection._ack_ranges()
        assert ranges[0][0] == 0
        for start, end in ranges:
            assert start < end
        for (_, end), (next_start, _) in zip(ranges, ranges[1:]):
            assert end < next_start
    received = {0, *arrivals}
    assert [
        pn for start, end in connection._ack_ranges() for pn in range(start, end)
    ] == sorted(received)
