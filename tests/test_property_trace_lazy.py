"""Property-based tests for the lazily-formatted trace log.

The optimized :class:`TraceLog` stores raw ``(time, category, keys,
values)`` tuples and only materializes/renders records on demand, with a
per-category index answering exact-category queries.  These tests pit
that implementation against a straight-line eager reference on
randomized record streams: same rendered lines, same query results,
same counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel.trace import TraceLog, TraceRecord, format_record

categories = st.sampled_from(
    ["tcp.retransmit", "tcp.send", "h2.rst_stream", "h2.headers", "link.send"]
)

field_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(alphabet="abcxyz:/?=", max_size=8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

records_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        categories,
        st.dictionaries(
            st.sampled_from(["seq", "stream", "size", "flags", "why"]),
            field_values,
            max_size=4,
        ),
    ),
    max_size=60,
)


def _fill(rows):
    """Append ``rows`` to a fresh log and an eager reference."""
    log = TraceLog()
    eager_lines = []
    eager_records = []
    for time, category, fields in rows:
        log.record(time, category, tuple(fields), tuple(fields.values()))
        # Eager reference: format and materialize at append time.
        eager_lines.append(format_record(time, category, fields))
        eager_records.append(TraceRecord(time, category, dict(fields)))
    return log, eager_lines, eager_records


@given(records_strategy)
@settings(max_examples=150)
def test_lazy_rendering_matches_eager_reference(rows):
    """render()/render_lines on the lazy log equal eager formatting."""
    log, eager_lines, _ = _fill(rows)
    assert [record.render() for record in log] == eager_lines
    assert log.render_lines() == eager_lines


@given(records_strategy, categories)
@settings(max_examples=150)
def test_category_index_agrees_with_linear_scan(rows, category):
    """Indexed select/count match a full scan with a predicate."""
    log, _, eager_records = _fill(rows)
    linear = [rec for rec in eager_records if rec.category == category]
    assert log.select(category=category) == linear
    assert log.count(category=category) == len(linear)

    prefix = category.split(".")[0] + "."
    linear_prefix = [
        rec for rec in eager_records if rec.category.startswith(prefix)
    ]
    assert log.select(prefix=prefix) == linear_prefix
    assert log.count(prefix=prefix) == len(linear_prefix)


@given(records_strategy)
@settings(max_examples=100)
def test_lazy_access_is_stable_and_order_preserving(rows):
    """Materialization caches per index and keeps append order."""
    log, _, eager_records = _fill(rows)
    assert len(log) == len(eager_records)
    assert list(log) == eager_records
    for index in range(len(log)):
        assert log[index] is log[index]  # cached, not re-materialized
        assert log[index] == eager_records[index]
    histogram = log.categories()
    assert sum(histogram.values()) == len(eager_records)
    for category, count in histogram.items():
        assert count == sum(1 for rec in eager_records if rec.category == category)
