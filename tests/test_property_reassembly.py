"""Property-based tests for TCP reassembly and the stream layout."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.tcp.reassembly import ReassemblyBuffer
from repro.transport.stream import StreamLayout


class _Msg:
    def __init__(self, length):
        self.wire_length = length


segments_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 80)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    min_size=1,
    max_size=40,
)


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_rcv_nxt_is_monotone_and_correct(segments):
    """rcv_nxt only grows, and equals the contiguous prefix length."""
    buffer = ReassemblyBuffer()
    covered = set()
    previous = 0
    for start, end in segments:
        covered.update(range(start, end))
        rcv_nxt, _ = buffer.receive(start, end)
        assert rcv_nxt >= previous
        previous = rcv_nxt
    expected = 0
    while expected in covered:
        expected += 1
    assert buffer.rcv_nxt == expected


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_buffered_ranges_disjoint_and_sorted(segments):
    buffer = ReassemblyBuffer()
    for start, end in segments:
        buffer.receive(start, end)
    ranges = buffer.out_of_order_ranges
    for (a_start, a_end), (b_start, b_end) in zip(ranges, ranges[1:]):
        assert a_end < b_start  # disjoint, strictly ordered
    for start, end in ranges:
        assert start > buffer.rcv_nxt
        assert end > start


@given(segments_strategy)
@settings(max_examples=200)
def test_reassembly_duplicate_replay_changes_nothing(segments):
    """Replaying the whole arrival sequence is a no-op."""
    buffer = ReassemblyBuffer()
    for start, end in segments:
        buffer.receive(start, end)
    state = (buffer.rcv_nxt, buffer.out_of_order_ranges)
    for start, end in segments:
        _, duplicate = buffer.receive(start, end)
        assert duplicate
    assert (buffer.rcv_nxt, buffer.out_of_order_ranges) == state


class _ByteSetModel:
    """Reference reassembly: the set of every byte received so far."""

    def __init__(self):
        self.have = set()
        self.rcv_nxt = 0
        self.duplicate_bytes = 0

    def receive(self, start, end):
        fresh = set(range(start, end)) - self.have
        if not fresh and end > start:
            self.duplicate_bytes += end - start
        self.have |= fresh
        while self.rcv_nxt in self.have:
            self.rcv_nxt += 1
        return self.rcv_nxt, not fresh

    def ranges(self):
        """Maximal runs of received bytes above ``rcv_nxt``."""
        runs = []
        for byte in sorted(b for b in self.have if b > self.rcv_nxt):
            if runs and runs[-1][1] == byte:
                runs[-1][1] = byte + 1
            else:
                runs.append([byte, byte + 1])
        return [tuple(run) for run in runs]

    def covers(self, start, end):
        return all(byte in self.have for byte in range(start, end))

    def merge(self, start, end):
        """Receive a range; return how many of its bytes were fresh."""
        before = len(self.have)
        self.receive(start, end)
        return len(self.have) - before

    def received_ranges(self):
        prefix = [(0, self.rcv_nxt)] if self.rcv_nxt else []
        return tuple(prefix + self.ranges())


# Widths from 0 (an empty range) up; many land adjacent or overlapping.
arrivals_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 40)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    min_size=1,
    max_size=60,
)


@st.composite
def sparse_arrivals(draw):
    """>= 300 one-byte holes left open, plus fills that merge neighbours.

    Slot ``i`` is ``[3i + 1, 3i + 3)``, so byte ``3i`` stays a hole
    until a fill ``[3i, 3i + 1)`` arrives and joins slot ``i - 1`` and
    slot ``i`` into one range by adjacency alone.
    """
    count = draw(st.integers(340, 400))
    arrivals = [(3 * i + 1, 3 * i + 3) for i in draw(st.permutations(range(count)))]
    for slot in draw(st.lists(st.integers(0, count - 1), max_size=40)):
        position = draw(st.integers(0, len(arrivals)))
        arrivals.insert(position, (3 * slot, 3 * slot + 1))
    return arrivals


def _check_against_model(arrivals, probes):
    buffer, model = ReassemblyBuffer(), _ByteSetModel()
    for start, end in arrivals:
        assert buffer.receive(start, end) == model.receive(start, end)
        assert buffer.duplicate_bytes == model.duplicate_bytes
    assert buffer.rcv_nxt == model.rcv_nxt
    assert buffer.out_of_order_ranges == model.ranges()
    for start, end in probes:
        assert buffer.covers(start, end) == model.covers(start, end)
    return buffer


probes_strategy = st.lists(
    st.tuples(st.integers(0, 1250), st.integers(1, 40)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    max_size=40,
)


# In-order arrivals skip the range list when they end short of the first
# buffered range; these pin that fast path's edges.
IN_ORDER_RUN = [(10 * i, 10 * i + 10) for i in range(30)] + [(295, 310)]
ENDS_AT_BUFFERED_START = [(0, 5), (20, 30), (4, 20), (30, 31)]
HOLE_FILLED_AFTER_FAST_PATH = [(0, 10), (20, 30), (10, 15), (40, 45), (15, 20),
                               (30, 40)]


@given(arrivals_strategy, probes_strategy)
@settings(max_examples=300)
@example(IN_ORDER_RUN, [(0, 310), (300, 311)])
@example(ENDS_AT_BUFFERED_START, [(0, 31), (5, 20), (30, 32)])
@example(HOLE_FILLED_AFTER_FAST_PATH, [(0, 45), (12, 18), (44, 46)])
def test_reassembly_matches_byte_set_model(arrivals, probes):
    """rcv_nxt, ranges, duplicate flags/bytes and covers() all agree."""
    _check_against_model(arrivals, probes)


@given(sparse_arrivals(), probes_strategy)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_reassembly_matches_model_with_hundreds_of_holes(arrivals, probes):
    buffer = _check_against_model(arrivals + arrivals[:20], probes)
    assert len(buffer.out_of_order_ranges) >= 300


def _check_merge_against_model(arrivals):
    buffer, model = ReassemblyBuffer(), _ByteSetModel()
    for start, end in arrivals:
        assert buffer.merge(start, end) == model.merge(start, end)
        assert buffer.duplicate_bytes == model.duplicate_bytes
    assert buffer.received_ranges() == model.received_ranges()
    return buffer


@given(arrivals_strategy)
@settings(max_examples=300)
@example(IN_ORDER_RUN)
@example(ENDS_AT_BUFFERED_START)
@example(HOLE_FILLED_AFTER_FAST_PATH)
def test_merge_counts_fresh_bytes_like_byte_set_model(arrivals):
    """merge() returns the bytes a range newly covers; received_ranges()
    lists the cumulative range and then every buffered one."""
    _check_merge_against_model(arrivals)


@given(sparse_arrivals())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_merge_counts_fresh_bytes_with_hundreds_of_holes(arrivals):
    buffer = _check_merge_against_model(arrivals + arrivals[:20])
    assert len(buffer.out_of_order_ranges) >= 300


@given(st.lists(st.integers(1, 5000), min_size=1, max_size=50))
@settings(max_examples=200)
def test_layout_partitions_sequence_space(lengths):
    """Message spans tile [0, next_seq) without gaps or overlaps."""
    layout = StreamLayout()
    for length in lengths:
        layout.append(_Msg(length))
    spans = layout.spans_completed_by(layout.next_seq)
    assert len(spans) == len(lengths)
    cursor = 0
    for span, length in zip(spans, lengths):
        assert span.start == cursor
        assert span.length == length
        cursor = span.end
    assert cursor == layout.next_seq == sum(lengths)


@given(
    st.lists(st.integers(1, 2000), min_size=1, max_size=30),
    st.integers(0, 60000),
    st.integers(1, 3000),
)
@settings(max_examples=200)
def test_layout_queries_consistent(lengths, start, width):
    layout = StreamLayout()
    for length in lengths:
        layout.append(_Msg(length))
    end = start + width
    overlapping = layout.spans_overlapping(start, end)
    contained = layout.spans_contained(start, end)
    starting = layout.spans_starting_in(start, end)
    # Contained and starting spans are subsets of overlapping spans.
    assert set(id(s) for s in contained) <= set(id(s) for s in overlapping)
    assert set(id(s) for s in starting) <= set(id(s) for s in overlapping)
    for span in overlapping:
        assert span.start < end and span.end > start
    for span in contained:
        assert span.start >= start and span.end <= end
    for span in starting:
        assert start <= span.start < end


@given(
    st.lists(st.integers(1, 2000), max_size=30),
    st.integers(0, 300),
    st.data(),
)
@settings(max_examples=300)
def test_layout_range_queries_match_brute_force(lengths, initial_seq, data):
    """Each query equals a filter over every span, for empty, reversed
    and out-of-range queries too."""
    layout = StreamLayout(initial_seq)
    for length in lengths:
        layout.append(_Msg(length))
    spans = layout.spans_completed_by(layout.next_seq)
    edges = [initial_seq] + [span.end for span in spans]
    position = st.one_of(
        st.integers(initial_seq - 50, layout.next_seq + 500),
        st.builds(
            lambda edge, offset: edge + offset,
            st.sampled_from(edges),
            st.integers(-2, 2),
        ),
    )
    for start, end in data.draw(
        st.lists(st.tuples(position, position), min_size=1, max_size=20)
    ):
        assert layout.spans_overlapping(start, end) == [
            span
            for span in spans
            if max(span.start, start) < min(span.end, end)
        ]
        assert layout.spans_contained(start, end) == [
            span for span in spans if start <= span.start and span.end <= end
        ]
        assert layout.spans_starting_in(start, end) == [
            span for span in spans if start <= span.start < end
        ]
