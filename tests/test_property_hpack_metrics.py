"""Property-based tests for HPACK coding and the multiplexing metric."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    MultiplexingReport,
    degree_of_multiplexing,
    instance_byte_ranges,
)
from repro.h2.frames import DataFrame
from repro.h2.server import ResponseInstance
from repro.hpack.codec import HpackDecoder, HpackEncoder, prefix_integer_length
from repro.hpack.huffman import huffman_encoded_length
from repro.transport.stream import StreamLayout
from repro.tls.record import APPLICATION_DATA, TLSRecord

header_names = st.sampled_from(
    [":method", ":path", ":authority", "accept", "cookie", "x-custom",
     "user-agent", "cache-control"]
)
header_values = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0, max_size=40,
)
header_lists = st.lists(
    st.tuples(header_names, header_values), min_size=1, max_size=12
)


@given(st.lists(header_lists, min_size=1, max_size=6))
@settings(max_examples=100)
def test_hpack_roundtrip_over_block_sequences(blocks):
    """Decoder reproduces every header list, in order, for any sequence
    of blocks (dynamic-table state carried across blocks)."""
    encoder, decoder = HpackEncoder(), HpackDecoder()
    for headers in blocks:
        block = encoder.encode(headers)
        assert decoder.decode(block) == headers
        assert block.encoded_length >= len(headers)  # ≥1 octet per field


@given(header_lists)
@settings(max_examples=100)
def test_hpack_repeat_block_never_larger(headers):
    """Re-encoding the same header list never grows (indexing pays off)."""
    encoder = HpackEncoder()
    first = encoder.encode(headers)
    second = encoder.encode(headers)
    assert second.encoded_length <= first.encoded_length


@given(st.integers(0, 10_000_000), st.integers(1, 8))
def test_prefix_integer_length_positive_and_monotone(value, prefix):
    length = prefix_integer_length(value, prefix)
    assert length >= 1
    assert prefix_integer_length(value + 1, prefix) >= length


@given(st.text(max_size=200))
def test_huffman_length_bounds(text):
    """Huffman output is positive and at most ~3.75 bytes/char (30-bit
    worst case)."""
    length = huffman_encoded_length(text)
    assert length >= (len(text) * 5 + 7) // 8  # best case 5 bits/char
    assert length <= (len(text) * 30 + 7) // 8 + 1


# -- degree of multiplexing properties ---------------------------------------

_instance_counter = [0]


def _mk_instance(object_id):
    _instance_counter[0] += 1
    return ResponseInstance(
        instance_id=_instance_counter[0], object_id=object_id,
        path=f"/{object_id}", stream_id=1, body_bytes=1,
        duplicate=False, started_at=0.0,
    )


chunk_sequences = st.lists(
    st.tuples(st.integers(0, 3), st.integers(100, 2000)),
    min_size=1, max_size=20,
)


@given(chunk_sequences)
@settings(max_examples=150)
def test_degree_always_in_unit_interval(chunks):
    instances = {index: _mk_instance(f"obj{index}") for index in range(4)}
    layout = StreamLayout()
    present = set()
    for owner, size in chunks:
        frame = DataFrame(stream_id=1, data_bytes=size,
                          context=instances[owner])
        layout.append(TLSRecord(APPLICATION_DATA, size, payload=frame),
                      length=size)
        present.add(owner)
    ranges = instance_byte_ranges(layout)
    for owner in present:
        degree = degree_of_multiplexing(instances[owner], ranges)
        assert degree in (0.0, 1.0)


@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 2000)),
    min_size=1, max_size=24,
))
@example([(0, 100), (1, 100), (2, 100)])  # touching extents only
@example([(0, 100), (1, 100), (1, 50), (0, 100)])  # nested extent
# A split instance, its single-chunk filler, and a split instance
# straddling a single-chunk one.
@example([(0, 100), (1, 100), (0, 100), (2, 100), (3, 100), (2, 5)])
@example([(4, 7)])  # one single-chunk instance alone
@settings(max_examples=300)
def test_report_degrees_match_per_target_reference(chunks):
    """The report's one-sort degrees equal the per-target reference for
    every instance on the stream, and every degree is exactly 0 or 1."""
    instances = {index: _mk_instance(f"obj{index}") for index in range(6)}
    layout = StreamLayout()
    for owner, size in chunks:
        frame = DataFrame(stream_id=1, data_bytes=size,
                          context=instances[owner])
        layout.append(TLSRecord(APPLICATION_DATA, size, payload=frame),
                      length=size)
    ranges = instance_byte_ranges(layout)
    degrees = MultiplexingReport.from_layout(layout).degrees
    assert list(degrees) == list(ranges)
    for instance, degree in degrees.items():
        assert degree == degree_of_multiplexing(instance, ranges)
        assert degree in (0.0, 1.0)


@given(chunk_sequences)
@settings(max_examples=150)
def test_single_object_streams_always_degree_zero(chunks):
    """If only one object is on the stream, its degree is always 0."""
    instance = _mk_instance("solo")
    layout = StreamLayout()
    for _, size in chunks:
        frame = DataFrame(stream_id=1, data_bytes=size, context=instance)
        layout.append(TLSRecord(APPLICATION_DATA, size, payload=frame),
                      length=size)
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(instance, ranges) == 0.0


@given(chunk_sequences, chunk_sequences)
@settings(max_examples=100)
def test_sequential_objects_degree_zero(first_chunks, second_chunks):
    """Two objects transmitted back to back (no interleaving) are both
    degree 0 regardless of their chunking."""
    a, b = _mk_instance("a"), _mk_instance("b")
    layout = StreamLayout()
    for _, size in first_chunks:
        frame = DataFrame(stream_id=1, data_bytes=size, context=a)
        layout.append(TLSRecord(APPLICATION_DATA, size, payload=frame),
                      length=size)
    for _, size in second_chunks:
        frame = DataFrame(stream_id=3, data_bytes=size, context=b)
        layout.append(TLSRecord(APPLICATION_DATA, size, payload=frame),
                      length=size)
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(a, ranges) == 0.0
    assert degree_of_multiplexing(b, ranges) == 0.0
