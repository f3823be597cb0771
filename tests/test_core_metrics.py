"""Unit tests for the degree-of-multiplexing metric."""

import pytest

from repro.core.metrics import (
    MultiplexingReport,
    degree_of_multiplexing,
    instance_byte_ranges,
)
from repro.h2.frames import DataFrame, HeadersFrame
from repro.h2.server import ResponseInstance
from repro.transport.stream import StreamLayout
from repro.tls.record import APPLICATION_DATA, TLSRecord


def _instance(object_id, stream_id=1, duplicate=False, instance_id=None):
    _instance.counter = getattr(_instance, "counter", 0) + 1
    return ResponseInstance(
        instance_id=instance_id or _instance.counter,
        object_id=object_id,
        path=f"/{object_id}",
        stream_id=stream_id,
        body_bytes=1000,
        duplicate=duplicate,
        started_at=0.0,
    )


def _layout_with(*sequence):
    """Build a layout from (instance, byte_count) pairs in stream order."""
    layout = StreamLayout()
    for instance, size in sequence:
        frame = DataFrame(stream_id=1, data_bytes=size, context=instance)
        record = TLSRecord(APPLICATION_DATA, size, payload=frame)
        layout.append(record, length=size)
    return layout


def test_contiguous_object_degree_zero():
    a, b = _instance("a"), _instance("b")
    layout = _layout_with((a, 1000), (b, 1000))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(a, ranges) == 0.0
    assert degree_of_multiplexing(b, ranges) == 0.0


def test_fully_interleaved_degree_one():
    a, b = _instance("a"), _instance("b")
    layout = _layout_with((a, 500), (b, 500), (a, 500), (b, 500))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(a, ranges) == 1.0
    assert degree_of_multiplexing(b, ranges) == 1.0


def test_split_object_fully_interleaved():
    # a: [0,1000); b: [1000,2000); a: [2000,3000) — a is split by b, so
    # neither is sizable: the split rule gives a 1.0, and b lies fully
    # inside a's extent → 1.0 as well.
    a, b = _instance("a"), _instance("b")
    layout = _layout_with((a, 1000), (b, 1000), (a, 1000))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(a, ranges) == 1.0
    assert degree_of_multiplexing(b, ranges) == 1.0


def test_split_object_its_filler_and_touching_successor():
    # d[0,100) e[100,1100) d[1100,1200) f[1200,2200): e's bytes split d
    # → 1.0; e lies inside d's extent → 1.0; f starts where d's extent
    # ends, so the extents only touch → 0.0.
    d, e, f = _instance("d"), _instance("e"), _instance("f")
    layout = _layout_with((d, 100), (e, 1000), (d, 100), (f, 1000))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(d, ranges) == 1.0
    assert degree_of_multiplexing(e, ranges) == 1.0
    assert degree_of_multiplexing(f, ranges) == 0.0


def test_straddling_extent_covers_target():
    # h[0,100) i[100,600) h[600,700) j[700,1700): no h byte lies inside
    # i's extent, but h's extent [0,700) straddles it and covers every
    # byte of i → 1.0; j only touches h's extent → 0.0.
    h, i, j = _instance("h"), _instance("i"), _instance("j")
    layout = _layout_with((h, 100), (i, 500), (h, 100), (j, 1000))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(i, ranges) == 1.0
    assert degree_of_multiplexing(j, ranges) == 0.0


def test_single_object_alone_degree_zero():
    a = _instance("a")
    layout = _layout_with((a, 3000))
    ranges = instance_byte_ranges(layout)
    assert degree_of_multiplexing(a, ranges) == 0.0


def test_unknown_instance_raises():
    a, b = _instance("a"), _instance("b")
    layout = _layout_with((a, 1000))
    ranges = instance_byte_ranges(layout)
    with pytest.raises(KeyError):
        degree_of_multiplexing(b, ranges)


def test_headers_frames_count_toward_instance():
    a = _instance("a")
    layout = StreamLayout()
    headers = HeadersFrame(stream_id=1, context=a)
    layout.append(TLSRecord(APPLICATION_DATA, 100, payload=headers), length=100)
    ranges = instance_byte_ranges(layout)
    assert a in ranges


def test_non_response_records_ignored():
    layout = StreamLayout()
    layout.append(TLSRecord(APPLICATION_DATA, 100, payload=object()), length=100)
    assert instance_byte_ranges(layout) == {}


def test_report_for_object_and_min_degree():
    a1 = _instance("x")
    a2 = _instance("x", duplicate=True)
    b = _instance("y")
    layout = _layout_with((a1, 500), (b, 500), (a1, 500), (b, 500), (a2, 1000))
    report = MultiplexingReport.from_layout(layout)
    assert report.original_degree("x") == 1.0
    assert report.min_degree("x") == 0.0  # the duplicate went out clean
    pairs = report.for_object("x")
    assert len(pairs) == 2
    originals = report.for_object("x", include_duplicates=False)
    assert len(originals) == 1


def test_report_unknown_object_none():
    report = MultiplexingReport.from_layout(StreamLayout())
    assert report.original_degree("nope") is None
    assert report.min_degree("nope") is None
