"""The indexed HPACK dynamic table answers every lookup as a scan would.

:class:`DynamicTable` finds entries through two dicts of insertion
stamps instead of walking the table newest-first.  These tests drive a
table through random inserts (with repeated names and values), resizes
(0 included) and oversize inserts, and after every step compare
``lookup`` for every field of a small universe against
:func:`reference_lookup`, the newest-first linear scan the stamps
replaced.  The scan reads the table only through ``entry_at``, so it
checks the stamps against the entries actually held.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hpack.table import (
    _STATIC_FULL_INDEX,
    _STATIC_NAME_INDEX,
    STATIC_TABLE,
    DynamicTable,
    HeaderField,
)

#: Static names (exact static fields included) and dynamic-only names.
NAMES = (":path", ":status", "cookie", "x-a", "x-b")
#: Short values repeat often; the long one (table_size 104–109) is an
#: oversize insert for the small table sizes below.
VALUES = ("", "1", "2", "/", "200", "v" * 70)
SIZES = (0, 40, 80, 120, 4096)

UNIVERSE = [HeaderField(name, value) for name in NAMES for value in VALUES]


def reference_lookup(table: DynamicTable, field: HeaderField):
    """``DynamicTable.lookup`` as a newest-first linear scan."""
    full_index = _STATIC_FULL_INDEX.get((field.name, field.value))
    if full_index is not None:
        return full_index, full_index
    name_index = _STATIC_NAME_INDEX.get(field.name)
    offset = len(STATIC_TABLE) + 1
    for index in range(len(table)):
        entry = table.entry_at(offset + index)
        if entry.name == field.name:
            if entry.value == field.value:
                return offset + index, offset + index
            if name_index is None:
                name_index = offset + index
    return None, name_index


def _insert(name, value):
    return ("insert", name, value)


def _resize(size):
    return ("resize", size)


operations = st.lists(
    st.one_of(
        st.builds(_insert, st.sampled_from(NAMES), st.sampled_from(VALUES)),
        st.builds(_resize, st.sampled_from(SIZES)),
    ),
    max_size=40,
)


def _check_every_lookup(table: DynamicTable) -> None:
    for field in UNIVERSE:
        assert table.lookup(field) == reference_lookup(table, field), field


@given(operations)
@settings(max_examples=300, deadline=None)
# A duplicate inserted twice: the newer copy (62) is the exact match.
@example([_insert("x-a", "1"), _insert("x-a", "1")])
# An exact match behind a newer entry with the same name.
@example([_insert("x-a", "1"), _insert("x-a", "2")])
# A key re-inserted before its old entry is evicted: evicting the old
# copy must leave the newer one findable (room for two 36-octet
# entries at 80 octets).
@example([_resize(80), _insert("x-a", "1"), _insert("x-b", "1"),
          _insert("x-a", "1"), _insert("x-b", "2")])
# Resize to 0 evicts everything, then the table fills again.
@example([_insert("x-a", "1"), _insert("cookie", "2"), _resize(0),
          _resize(4096), _insert("x-b", "1")])
# An oversize insert empties the table.
@example([_resize(80), _insert("x-a", "1"), _insert("x-a", "v" * 70),
          _insert("x-b", "2")])
def test_lookup_matches_linear_scan(ops):
    table = DynamicTable(max_size=4096)
    _check_every_lookup(table)
    for op in ops:
        if op[0] == "insert":
            table.insert(HeaderField(op[1], op[2]))
        else:
            table.resize(op[1])
        assert table.size <= table.max_size
        _check_every_lookup(table)


def test_examples_reach_the_dynamic_table():
    """The pinned cases resolve to dynamic indices, not static ones."""
    table = DynamicTable()
    table.insert(HeaderField("x-a", "1"))
    table.insert(HeaderField("x-a", "2"))
    assert table.lookup(HeaderField("x-a", "1")) == (63, 63)
    assert table.lookup(HeaderField("x-a", "3")) == (None, 62)
    table.resize(0)
    assert len(table) == 0
    assert table.lookup(HeaderField("x-a", "1")) == (None, None)
