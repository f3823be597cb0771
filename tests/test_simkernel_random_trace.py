"""Unit tests for random streams, the trace log and units."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel.randomstream import (
    SPLITMIX_GAMMA,
    CounterStream,
    RandomStreams,
    draw64,
    mix64,
    randint,
    uniform,
)
from repro.simkernel.trace import TraceLog, format_record
from repro.simkernel.units import (
    MBPS,
    MILLISECONDS,
    bandwidth_to_bytes_per_second,
    transmission_delay,
)


# -- RandomStreams -----------------------------------------------------------

def test_same_name_same_stream():
    streams = RandomStreams(1)
    assert streams.stream("x") is streams.stream("x")


def test_streams_reproducible_across_instances():
    first = [RandomStreams(5).stream("jitter").random() for _ in range(3)]
    second = [RandomStreams(5).stream("jitter").random() for _ in range(3)]
    # Each instance creates a fresh stream; drawing 3 values must match.
    a = RandomStreams(5).stream("jitter")
    b = RandomStreams(5).stream("jitter")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(1)
    assert streams.stream("a").random() != streams.stream("b").random()


def test_creation_order_does_not_matter():
    forward = RandomStreams(9)
    forward.stream("first")
    first_draw = forward.stream("second").random()
    backward = RandomStreams(9)
    second_draw = backward.stream("second").random()
    assert first_draw == second_draw


def test_spawn_derives_new_master():
    parent = RandomStreams(3)
    child_a = parent.spawn("trial-0")
    child_b = parent.spawn("trial-1")
    assert child_a.master_seed != child_b.master_seed
    assert RandomStreams(3).spawn("trial-0").master_seed == child_a.master_seed


def test_uniform_within_bounds():
    streams = RandomStreams(2)
    for _ in range(100):
        value = streams.uniform("u", 1.0, 2.0)
        assert 1.0 <= value <= 2.0


def test_shuffled_preserves_elements_and_input():
    streams = RandomStreams(4)
    items = [1, 2, 3, 4, 5]
    shuffled = streams.shuffled("s", items)
    assert sorted(shuffled) == items
    assert items == [1, 2, 3, 4, 5]


def test_choice_picks_member():
    streams = RandomStreams(4)
    assert streams.choice("c", ["only"]) == "only"


# -- TraceLog ----------------------------------------------------------------

# -- CounterStream array kernels --------------------------------------------

#: Seeds at the top of the 64-bit range, where ``seed + i * gamma``
#: wraps at once.
WRAP_SEEDS = [2**64 - 1, 2**64 - 2, 2**64 - SPLITMIX_GAMMA, SPLITMIX_GAMMA - 1]


def scalar_draw(seed, index):
    """A fresh stream advanced to draw ``index`` (1-indexed)."""
    stream = CounterStream(seed)
    stream.advance(index - 1)
    return stream


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.lists(
        st.integers(0, 2**64 - 1) | st.sampled_from(WRAP_SEEDS),
        min_size=1, max_size=6,
    ),
    draws=st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=5),
    low=st.integers(-(2**40), 2**40),
    span=st.integers(1, 2**62),
)
@example(seeds=WRAP_SEEDS, draws=[1, 2, 2**63 - 1], low=0, span=1)
def test_array_draws_equal_scalar_counter_stream(seeds, draws, low, span):
    # The caller's arrays stay untouched, whether the indices carry the
    # broadcast shape or not.
    seed_column = np.array(seeds, dtype=np.uint64)[:, None]
    index_row = np.array(draws, dtype=np.int64)[None, :]
    index_grid = np.repeat(index_row, len(seeds), axis=0)
    inputs = [seed_column, index_row, index_grid]
    before = [array.copy() for array in inputs]
    high = low + span - 1
    for indices in (index_row, index_grid):
        raw = draw64(seed_column, indices)
        units = uniform(seed_column, indices)
        ints = randint(seed_column, indices, low, high)
        for row, seed in enumerate(seeds):
            for column, index in enumerate(draws):
                expected = mix64((seed + index * SPLITMIX_GAMMA) % 2**64)
                assert int(raw[row, column]) == expected
                assert units[row, column] == scalar_draw(seed, index).random()
                assert ints[row, column] == scalar_draw(seed, index).randint(low, high)
    for index in draws[:2]:
        assert draw64(seed_column[:, 0], index).tolist() == [
            mix64((seed + index * SPLITMIX_GAMMA) % 2**64) for seed in seeds
        ]
    for array, copy in zip(inputs, before):
        assert np.array_equal(array, copy)


def test_trace_record_and_select():
    log = TraceLog()
    log.record(1.0, "tcp.retransmit", ("kind",), ("fast",))
    log.record(2.0, "tcp.retransmit", ("kind",), ("rto",))
    log.record(3.0, "h2.request", ("path",), ("/x",))
    assert log.count(category="tcp.retransmit") == 2
    assert log.count(prefix="tcp.") == 2
    fast = log.select(
        category="tcp.retransmit", predicate=lambda r: r["kind"] == "fast"
    )
    assert len(fast) == 1 and fast[0].time == 1.0


def test_tuple_row_renders_like_format_record():
    """A row stored as names and values materializes and renders exactly
    like the same fields passed to ``format_record``."""
    log = TraceLog()
    keys = ("link", "direction", "packet_id", "size", "arrival")
    values = ("client-link", 0, 17, 1500, 0.0123)
    log.record(1.25, "link.send", keys, values)
    record = log[0]
    fields = {"link": "client-link", "direction": 0, "packet_id": 17,
              "size": 1500, "arrival": 0.0123}
    assert record.fields == fields
    assert list(record.fields) == list(keys)
    assert record.render() == format_record(1.25, "link.send", fields)
    assert record.render() == (
        "  1.250000 link.send link='client-link' direction=0 packet_id=17 "
        "size=1500 arrival=0.0123"
    )
    assert log[0] is record and log.select("link.send")[0] is record
    log.record(2.0, "tcp.syn_sent")
    assert log[1].fields == {}
    assert log[1].render() == format_record(2.0, "tcp.syn_sent", {})


def test_trace_disabled_records_nothing():
    log = TraceLog(enabled=False)
    log.record(1.0, "x")
    assert len(log) == 0


def test_trace_categories_histogram():
    log = TraceLog()
    log.record(1.0, "a")
    log.record(2.0, "a")
    log.record(3.0, "b")
    assert log.categories() == {"a": 2, "b": 1}


def test_trace_record_get_with_default():
    log = TraceLog()
    log.record(1.0, "x", ("field",), (5,))
    record = log.select(category="x")[0]
    assert record.get("field") == 5
    assert record.get("missing", "d") == "d"


def test_trace_clear():
    log = TraceLog()
    log.record(1.0, "x")
    log.clear()
    assert len(log) == 0


# -- units -------------------------------------------------------------------

def test_bandwidth_conversion():
    assert bandwidth_to_bytes_per_second(8 * MBPS) == 1_000_000


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        bandwidth_to_bytes_per_second(0)


def test_transmission_delay():
    assert transmission_delay(1250, 1 * MBPS) == pytest.approx(0.01)


def test_transmission_delay_zero_size():
    assert transmission_delay(0, 1 * MBPS) == 0.0


def test_transmission_delay_negative_size_raises():
    with pytest.raises(ValueError):
        transmission_delay(-1, 1 * MBPS)


def test_milliseconds_constant():
    assert 25 * MILLISECONDS == pytest.approx(0.025)


# ---------------------------------------------------------------------------
# Indexed TraceLog vs a linear-scan reference
# ---------------------------------------------------------------------------

def _reference_select(log, category=None, prefix=None, predicate=None):
    """The pre-index semantics: one linear scan over every record."""
    out = []
    for record in log:
        if category is not None and record.category != category:
            continue
        if prefix is not None and not record.category.startswith(prefix):
            continue
        if predicate is not None and not predicate(record):
            continue
        out.append(record)
    return out


def _populated_log():
    log = TraceLog()
    categories = ["tcp.send", "tcp.recv", "tcp.retransmit",
                  "h2.frame", "h2.reset", "adversary.drop", "tcp"]
    for i in range(200):
        log.record(float(i) / 10.0, categories[i % len(categories)], ("n",), (i,))
    return log


def test_indexed_select_matches_linear_scan():
    log = _populated_log()
    cases = [
        {},
        {"category": "tcp.send"},
        {"category": "missing"},
        {"prefix": "tcp."},
        {"prefix": "tcp"},          # matches "tcp" and "tcp.*"
        {"prefix": "nothing."},
        {"category": "h2.frame", "prefix": "h2."},
        {"category": "h2.frame", "prefix": "tcp."},   # contradictory
        {"predicate": lambda r: r["n"] % 2 == 0},
        {"category": "tcp.recv", "predicate": lambda r: r["n"] > 100},
        {"prefix": "h2.", "predicate": lambda r: r.time < 5.0},
    ]
    for kwargs in cases:
        assert log.select(**kwargs) == _reference_select(log, **kwargs), kwargs


def test_indexed_select_preserves_record_order():
    log = _populated_log()
    for kwargs in ({"prefix": "tcp."}, {"category": "h2.reset"}, {}):
        times = [record.time for record in log.select(**kwargs)]
        assert times == sorted(times)


def test_indexed_count_matches_select_length():
    log = _populated_log()
    cases = [
        {},
        {"category": "tcp.send"},
        {"category": "missing"},
        {"prefix": "tcp."},
        {"prefix": "tcp"},
        {"category": "h2.frame", "prefix": "tcp."},
    ]
    for kwargs in cases:
        assert log.count(**kwargs) == len(_reference_select(log, **kwargs)), kwargs


def test_index_survives_clear_and_reuse():
    log = _populated_log()
    log.clear()
    assert log.count() == 0
    assert log.categories() == {}
    assert log.select(prefix="tcp.") == []
    log.record(1.0, "tcp.send", ("n",), (1,))
    assert log.count(category="tcp.send") == 1
    assert log.categories() == {"tcp.send": 1}


def test_disabled_log_keeps_index_empty():
    log = TraceLog(enabled=False)
    log.record(1.0, "tcp.send", ("n",), (1,))
    assert log.count() == 0
    assert log.count(category="tcp.send") == 0
    assert log.select(category="tcp.send") == []
    assert log.categories() == {}


def test_select_returns_copy_not_internal_storage():
    log = _populated_log()
    everything = log.select()
    everything.append("sentinel")
    assert log.count() == 200
