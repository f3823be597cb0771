"""Property-based tests for QUIC acknowledgement ranges.

``_ack_ranges`` promises a sorted, strictly disjoint range list and
``_handle_acks`` bisects on that promise; both are checked here against
brute force over random packet-number patterns.  The sender's whole
ACK bookkeeping is also checked step by step against ``_ScanModel``,
the earlier implementation that scanned every sent record per ACK and
rebuilt the map after every productive one.
"""

from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.packet import Packet
from repro.netsim.topology import build_adversary_path
from repro.simkernel.trace import TraceLog
from repro.tcp.reassembly import ReassemblyBuffer
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
def disjoint_ranges(draw, high=600, max_bounds=120):
    """Sorted, disjoint ``[start, end)`` ranges over packet numbers."""
    bounds = sorted(draw(st.sets(st.integers(0, high), max_size=max_bounds)))
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


# ---------------------------------------------------------------------------
# The scanning implementation as a reference model
# ---------------------------------------------------------------------------


def _acked_total(buffer: ReassemblyBuffer) -> int:
    """Total bytes covered by a sender's acked-range buffer."""
    return buffer.rcv_nxt + sum(
        end - start for start, end in buffer.out_of_order_ranges
    )


class _ScanModel(QuicConnection):
    """The sender's ACK bookkeeping as a plain scan.

    Every ACK visits every record in ``_sent``, acked and lost records
    are skipped by flag, and every productive ACK rebuilds ``_sent``
    without its resolved records.  PTO-declared losses therefore stay
    until the next productive ACK, and can be acked until then.
    """

    def _handle_acks(self, ack_ranges):
        newly_acked = [
            (pn, record)
            for pn, record in self._sent.items()
            if not record.acked
            and any(start <= pn < end for start, end in ack_ranges)
        ]
        if not newly_acked:
            return

        acked_payload = 0
        acked_stream_bytes = 0
        largest = self._largest_acked
        sample: Optional[float] = None
        for pn, record in newly_acked:
            record.acked = True
            if not record.lost:
                self._in_flight -= record.payload_bytes
            acked_payload += record.payload_bytes
            for chunk in record.chunks:
                tx = self._tx_streams[chunk.stream_id]
                before = _acked_total(tx.acked)
                tx.acked.receive(chunk.start, chunk.end)
                acked_stream_bytes += _acked_total(tx.acked) - before
            if pn > largest:
                largest = pn
                sample = (
                    self._sim.now - record.sent_at
                    if not record.is_retransmission
                    else None
                )
        self._largest_acked = largest
        self._acked_bytes += acked_stream_bytes

        if sample is not None:
            self.rto.on_sample(sample)
        else:
            self.rto.reset_backoff()
        self.cc.on_ack_progress(acked_payload, self._acked_bytes)
        self._detect_losses()

        if self._in_flight > 0:
            self._pto_timer.start(self.rto.rto)
        else:
            self._pto_timer.cancel()
        self._try_send()
        if acked_stream_bytes > 0 and self.on_writable:
            self.on_writable()
        self._maybe_send_close()
        self._sent = {
            pn: record
            for pn, record in self._sent.items()
            if not (record.acked or record.lost)
        }

    def _detect_losses(self):
        threshold = self._largest_acked - self.config.packet_reorder_threshold
        lost = [
            (pn, record)
            for pn, record in self._sent.items()
            if not (record.acked or record.lost) and pn <= threshold
        ]
        if not lost:
            return
        for pn, record in lost:
            record.lost = True
            self._in_flight -= record.payload_bytes
            self._requeue(record)
        if not self.cc.in_recovery:
            self.cc.on_fast_retransmit(
                max(self._in_flight, 0), self._acked_bytes + self._in_flight
            )
        first_pn, first = min(lost, key=lambda item: item[0])
        self._record(
            "quic.retransmit",
            ("kind", "pn", "length"),
            ("fast", first_pn, first.payload_bytes),
        )

    def _on_pto(self):
        outstanding = [
            (pn, record)
            for pn, record in self._sent.items()
            if not record.acked and not record.lost
        ]
        if not outstanding:
            return
        self.cc.on_timeout(self._in_flight)
        self.rto.on_timeout()
        self._record(
            "quic.retransmit",
            ("kind", "pn", "rto"),
            ("pto", min(pn for pn, _ in outstanding), self.rto.rto),
        )
        for _, record in sorted(outstanding, key=lambda item: item[0]):
            record.lost = True
            self._in_flight -= record.payload_bytes
            self._requeue(record)
        self._pto_timer.start(self.rto.rto)
        self._try_send()


class _Data:
    """Stands in for an HTTP/2 DATA frame: it rides its own stream."""

    def __init__(self, stream_id):
        self.stream_id = stream_id
        self.data_bytes = 0


class _Message:
    def __init__(self, stream_id):
        # Stream 0 is the control stream: anything without data_bytes.
        self.payload = _Data(stream_id) if stream_id else None


def _sender(cls):
    topology = build_adversary_path(seed=1)
    connection = cls(
        topology.sim,
        topology.client,
        50_000,
        topology.server.endpoint(443),
        trace=TraceLog(),
    )
    connection.state = QuicState.ESTABLISHED
    return connection


def _apply(connection, step):
    kind = step[0]
    if kind == "send":
        _, length, stream_id = step
        connection.send_message(_Message(stream_id), length)
    elif kind == "ack":
        connection._handle_acks(step[1])
    elif kind == "ack-back":
        # Ranges counted back from the next packet number, as a peer
        # acks what it received lately: (high, low) -> [top-high, top-low).
        top = connection._next_pn
        connection._handle_acks(tuple(
            (max(top - high, 0), top - low)
            for high, low in step[1]
            if top - low > 0
        ))
    elif kind == "ack-holes":
        # The peer received everything sent but the picked outstanding
        # packets, which an on-path adversary holds back: they sit in
        # the ACK's holes, below its last range.
        outstanding = [
            pn for pn, record in connection._sent.items()
            if not (record.acked or record.lost)
        ]
        held = sorted({outstanding[i % len(outstanding)] for i in step[1]}
                      if outstanding else ())
        ranges, start = [], 0
        for pn in held + [connection._next_pn]:
            if pn > start:
                ranges.append((start, pn))
            start = pn + 1
        connection._handle_acks(tuple(ranges))
    elif kind == "pto":
        connection._on_pto()
    elif kind == "ack-only":
        connection._send_ack_now()  # a packet number _sent never holds
    else:  # "wait": armed PTO timers fire on their own
        sim = connection.sim
        sim.run_until(sim.now + step[1] / 1000)


def _state(connection):
    sent = connection._sent
    return {
        "sent": list(sent),
        "flags": [(record.acked, record.lost) for record in sent.values()],
        "in_flight": connection._in_flight,
        "acked_bytes": connection._acked_bytes,
        "largest_acked": connection._largest_acked,
        "next_pn": connection._next_pn,
        "retx": [
            (entry.stream_id, entry.start, entry.end, entry.global_start)
            for entry in connection._retx
        ],
        "retransmitted": connection.retransmitted_segments,
        "rto": (
            connection.rto.srtt,
            connection.rto.rttvar,
            connection.rto.backoff,
            connection.rto.samples,
            connection.rto.rto,
        ),
        "cc": (
            connection.cc.cwnd,
            connection.cc.ssthresh,
            connection.cc.in_recovery,
        ),
        "pto_armed": connection._pto_timer.armed,
        "trace": [
            (record.time, record.category, record.render())
            for record in connection._trace
        ],
    }


@st.composite
def back_offsets(draw):
    """Descending ``(high, low)`` offset pairs for an ``ack-back`` step."""
    bounds = sorted(
        draw(st.sets(st.integers(0, 12), max_size=6)), reverse=True
    )
    if len(bounds) % 2:
        bounds.pop()
    return tuple(zip(bounds[::2], bounds[1::2]))


steps_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"), st.integers(1, 6000), st.sampled_from((0, 1, 3))
        ),
        # Absolute ranges over the packet numbers a run can reach.
        st.tuples(st.just("ack"), disjoint_ranges(high=40, max_bounds=8)),
        st.tuples(st.just("ack-back"), back_offsets()),
        st.tuples(
            st.just("ack-holes"),
            st.frozensets(st.integers(0, 20), min_size=1, max_size=4),
        ),
        st.just(("pto",)),
        st.just(("ack-only",)),
        st.tuples(st.just("wait"), st.integers(0, 400)),
    ),
    min_size=8,
    max_size=60,
)


@given(steps_strategy)
@example(
    # A PTO-declared loss is acked by the next ACK: it counts its bytes
    # and its RTT sample, and the other PTO-lost records go with it.
    [("send", 3000, 1), ("pto",), ("ack", ((0, 1),))]
)
@example(
    # A no-progress ACK right after a PTO keeps the PTO-lost records;
    # the next productive ACK still counts one and purges the rest.
    [("send", 3000, 1), ("pto",), ("ack", ((50, 60),)), ("ack", ((1, 2),))]
)
@example(
    # After the PTO the lost chunk [1000, 2200) of pn 1 is resent split
    # (pn 4 carries [1000, 1200) in the 200 B the window leaves): the
    # ACK covers that piece only, and its rest stays queued.
    [
        ("send", 1000, 1),
        ("send", 2200, 1),
        ("pto",),
        ("ack", ((3, 5),)),
        ("ack", ((0, 2),)),
        ("ack", ((0, 9),)),
    ]
)
@example(
    # Held requests: the first ACK leaves pns 1 and 3 in its holes (1
    # is then declared lost and resent as 6); the same ACK again
    # acknowledges nothing while 3 sits in a hole below its last range.
    [("send", 1000, 1)] * 6
    + [("ack", ((0, 1), (2, 3), (4, 6)))] * 2
    + [("ack-holes", frozenset({0})), ("ack", ((0, 9),))]
)
@settings(max_examples=300, deadline=None)
def test_ack_bookkeeping_matches_the_scanning_model(steps):
    connection, model = _sender(QuicConnection), _sender(_ScanModel)
    for step in steps:
        _apply(connection, step)
        _apply(model, step)
        state = _state(connection)
        assert state["sent"] == sorted(state["sent"])
        assert state == _state(model), step
