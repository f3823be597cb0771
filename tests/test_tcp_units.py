"""Unit tests for TCP building blocks: segments, layout, reassembly,
RTT estimation, congestion control."""

import pytest

from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.rtt import RTOEstimator
from repro.tcp.segment import ACK, FIN, RST, SYN, TCPSegment
from repro.transport.stream import StreamLayout


class _Msg:
    def __init__(self, length, name=""):
        self.wire_length = length
        self.name = name

    def __repr__(self):
        return f"_Msg({self.name})"


# -- TCPSegment ----------------------------------------------------------------

def test_segment_end_seq():
    layout = StreamLayout()
    layout.append(_Msg(100))
    segment = TCPSegment(seq=10, ack=0, flags=frozenset({ACK}),
                         payload_bytes=100, layout=layout)
    assert segment.end_seq == 110


def test_data_segment_requires_layout():
    with pytest.raises(ValueError):
        TCPSegment(seq=0, ack=0, flags=frozenset({ACK}), payload_bytes=10)


def test_pure_ack_detection():
    ack = TCPSegment(seq=0, ack=5, flags=frozenset({ACK}))
    assert ack.is_pure_ack
    syn = TCPSegment(seq=0, ack=0, flags=frozenset({SYN, ACK}))
    assert not syn.is_pure_ack


def test_segment_flag_query():
    segment = TCPSegment(seq=0, ack=0, flags=frozenset({SYN}))
    assert segment.has(SYN)
    assert not segment.has(FIN)


# -- StreamLayout ---------------------------------------------------------------

def test_layout_assigns_contiguous_ranges():
    layout = StreamLayout()
    first = layout.append(_Msg(100))
    second = layout.append(_Msg(50))
    assert (first.start, first.end) == (0, 100)
    assert (second.start, second.end) == (100, 150)
    assert layout.next_seq == 150


def test_layout_rejects_nonpositive_length():
    layout = StreamLayout()
    with pytest.raises(ValueError):
        layout.append(_Msg(0))
    with pytest.raises(ValueError):
        layout.append(object())  # no wire_length


def test_layout_explicit_length_overrides():
    layout = StreamLayout()
    span = layout.append(_Msg(100), length=25)
    assert span.length == 25


def test_layout_spans_overlapping():
    layout = StreamLayout()
    layout.append(_Msg(100, "a"))
    layout.append(_Msg(100, "b"))
    layout.append(_Msg(100, "c"))
    names = [s.message.name for s in layout.spans_overlapping(50, 150)]
    assert names == ["a", "b"]


def test_layout_spans_contained():
    layout = StreamLayout()
    layout.append(_Msg(100, "a"))
    layout.append(_Msg(100, "b"))
    names = [s.message.name for s in layout.spans_contained(0, 150)]
    assert names == ["a"]


def test_layout_spans_starting_in():
    layout = StreamLayout()
    layout.append(_Msg(100, "a"))
    layout.append(_Msg(100, "b"))
    names = [s.message.name for s in layout.spans_starting_in(50, 150)]
    assert names == ["b"]


def test_layout_spans_completed_by():
    layout = StreamLayout()
    layout.append(_Msg(100, "a"))
    layout.append(_Msg(100, "b"))
    names = [s.message.name for s in layout.spans_completed_by(100)]
    assert names == ["a"]


def test_layout_empty_queries():
    layout = StreamLayout()
    assert layout.spans_overlapping(0, 10) == []
    assert layout.spans_completed_by(10) == []


# -- ReassemblyBuffer --------------------------------------------------------------

def test_reassembly_in_order():
    buffer = ReassemblyBuffer()
    rcv_nxt, duplicate = buffer.receive(0, 100)
    assert (rcv_nxt, duplicate) == (100, False)


def test_reassembly_out_of_order_then_fill():
    buffer = ReassemblyBuffer()
    rcv_nxt, _ = buffer.receive(100, 200)
    assert rcv_nxt == 0
    assert buffer.has_gap
    rcv_nxt, _ = buffer.receive(0, 100)
    assert rcv_nxt == 200
    assert not buffer.has_gap


def test_reassembly_full_duplicate():
    buffer = ReassemblyBuffer()
    buffer.receive(0, 100)
    rcv_nxt, duplicate = buffer.receive(0, 100)
    assert duplicate
    assert rcv_nxt == 100
    assert buffer.duplicate_bytes == 100


def test_reassembly_partial_overlap_not_duplicate():
    buffer = ReassemblyBuffer()
    buffer.receive(0, 100)
    rcv_nxt, duplicate = buffer.receive(50, 150)
    assert not duplicate
    assert rcv_nxt == 150


def test_reassembly_overlapping_out_of_order_merge():
    buffer = ReassemblyBuffer()
    buffer.receive(100, 200)
    buffer.receive(150, 300)
    assert buffer.out_of_order_ranges == [(100, 300)]
    rcv_nxt, _ = buffer.receive(0, 100)
    assert rcv_nxt == 300


def test_reassembly_duplicate_of_buffered_out_of_order():
    buffer = ReassemblyBuffer()
    buffer.receive(100, 200)
    rcv_nxt, duplicate = buffer.receive(100, 200)
    assert duplicate
    assert rcv_nxt == 0


def test_reassembly_empty_range_is_duplicate():
    buffer = ReassemblyBuffer()
    _, duplicate = buffer.receive(10, 10)
    assert duplicate


def test_reassembly_first_ranges():
    buffer = ReassemblyBuffer()
    assert buffer.first_ranges(3) == ()
    for start in (100, 300, 500, 700):
        buffer.receive(start, start + 100)
    assert buffer.first_ranges(3) == ((100, 200), (300, 400), (500, 600))
    assert buffer.first_ranges(3) == tuple(buffer.out_of_order_ranges[:3])
    buffer.receive(0, 100)
    assert buffer.first_ranges(3) == ((300, 400), (500, 600), (700, 800))


def test_reassembly_multiple_holes():
    buffer = ReassemblyBuffer()
    buffer.receive(100, 200)
    buffer.receive(300, 400)
    assert len(buffer.out_of_order_ranges) == 2
    buffer.receive(0, 100)
    assert buffer.rcv_nxt == 200
    buffer.receive(200, 300)
    assert buffer.rcv_nxt == 400


def test_reassembly_received_ranges_start_at_initial_seq():
    buffer = ReassemblyBuffer(initial_seq=1000)
    assert buffer.received_ranges() == ()
    buffer.receive(1200, 1300)
    assert buffer.received_ranges() == ((1200, 1300),)
    assert buffer.merge(1000, 1100) == 100
    assert buffer.merge(1050, 1250) == 100  # only [1100, 1200) is new
    assert buffer.received_ranges() == ((1000, 1300),)


# -- RTOEstimator ------------------------------------------------------------------

def test_rto_initial_default():
    estimator = RTOEstimator()
    assert estimator.rto == 1.0  # initial RTO before samples


def test_rto_first_sample():
    estimator = RTOEstimator(min_rto=0.2)
    estimator.on_sample(0.1)
    assert estimator.srtt == 0.1
    assert estimator.rttvar == 0.05
    assert estimator.rto == pytest.approx(max(0.2, 0.1 + 4 * 0.05))


def test_rto_smoothing_converges():
    estimator = RTOEstimator(min_rto=0.0001)
    for _ in range(100):
        estimator.on_sample(0.050)
    assert estimator.srtt == pytest.approx(0.050, rel=0.01)
    assert estimator.rttvar < 0.01


def test_rto_min_floor():
    estimator = RTOEstimator(min_rto=0.2)
    for _ in range(50):
        estimator.on_sample(0.001)
    assert estimator.rto == 0.2


def test_rto_backoff_doubles_and_caps():
    estimator = RTOEstimator(min_rto=0.2, max_rto=60.0)
    estimator.on_sample(0.1)
    base = estimator.rto
    estimator.on_timeout()
    assert estimator.rto == pytest.approx(2 * base)
    for _ in range(20):
        estimator.on_timeout()
    # Backoff multiplier caps at 64; max_rto caps the product.
    assert estimator.rto == pytest.approx(min(60.0, base * 64))


def test_rto_backoff_reset_on_sample():
    estimator = RTOEstimator()
    estimator.on_sample(0.1)
    estimator.on_timeout()
    estimator.on_sample(0.1)
    assert estimator.backoff == 1


def test_rto_reset_backoff_explicit():
    estimator = RTOEstimator()
    estimator.on_timeout()
    estimator.reset_backoff()
    assert estimator.backoff == 1


def test_rto_negative_sample_raises():
    with pytest.raises(ValueError):
        RTOEstimator().on_sample(-0.1)


def test_rto_invalid_bounds():
    with pytest.raises(ValueError):
        RTOEstimator(min_rto=0.5, max_rto=0.1)


# -- RenoCongestionControl ------------------------------------------------------------

def test_reno_initial_window():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=10)
    assert cc.cwnd == 10_000
    assert cc.in_slow_start


def test_reno_slow_start_growth():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=1)
    cc.on_ack_progress(1000, snd_una=1000)
    assert cc.cwnd == 2000


def test_reno_congestion_avoidance_linear():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=4)
    cc.ssthresh = 4000  # at threshold: avoidance
    start = cc.cwnd
    # One full window of ACKs grows cwnd by one MSS.
    for _ in range(4):
        cc.on_ack_progress(1000, snd_una=0)
    assert cc.cwnd == start + 1000


def test_reno_fast_retransmit_halves():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=10)
    cc.on_fast_retransmit(flight_size=10_000, snd_nxt=10_000)
    assert cc.ssthresh == 5000
    assert cc.cwnd == 5000 + 3000
    assert cc.in_recovery


def test_reno_recovery_inflation_and_exit():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=10)
    cc.on_fast_retransmit(flight_size=10_000, snd_nxt=10_000)
    inflated = cc.cwnd
    cc.on_duplicate_ack_in_recovery()
    assert cc.cwnd == inflated + 1000
    cc.on_ack_progress(10_000, snd_una=10_000)
    assert not cc.in_recovery
    assert cc.cwnd == cc.ssthresh


def test_reno_timeout_collapses():
    cc = RenoCongestionControl(mss=1000, initial_window_segments=10)
    cc.on_timeout(flight_size=10_000)
    assert cc.cwnd == 1000
    assert cc.ssthresh == 5000
    assert cc.timeouts == 1


def test_reno_ssthresh_floor_two_mss():
    cc = RenoCongestionControl(mss=1000)
    cc.on_timeout(flight_size=1000)
    assert cc.ssthresh == 2000


def test_reno_invalid_mss():
    with pytest.raises(ValueError):
        RenoCongestionControl(mss=0)
