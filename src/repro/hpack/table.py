"""HPACK indexing tables (RFC 7541 §2.3).

The static table is the fixed 61-entry list from Appendix A.  The
dynamic table is a FIFO with the RFC's size accounting: each entry
costs ``len(name) + len(value) + 32`` octets against the negotiated
``SETTINGS_HEADER_TABLE_SIZE``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Iterable, Optional, Tuple


@dataclass(frozen=True)
class HeaderField:
    """One header name/value pair."""

    name: str
    value: str = ""

    @property
    def table_size(self) -> int:
        """RFC 7541 §4.1 entry size."""
        return len(self.name) + len(self.value) + 32


#: RFC 7541 Appendix A, in order (index 1 .. 61).
STATIC_TABLE: Tuple[HeaderField, ...] = (
    HeaderField(":authority"),
    HeaderField(":method", "GET"),
    HeaderField(":method", "POST"),
    HeaderField(":path", "/"),
    HeaderField(":path", "/index.html"),
    HeaderField(":scheme", "http"),
    HeaderField(":scheme", "https"),
    HeaderField(":status", "200"),
    HeaderField(":status", "204"),
    HeaderField(":status", "206"),
    HeaderField(":status", "304"),
    HeaderField(":status", "400"),
    HeaderField(":status", "404"),
    HeaderField(":status", "500"),
    HeaderField("accept-charset"),
    HeaderField("accept-encoding", "gzip, deflate"),
    HeaderField("accept-language"),
    HeaderField("accept-ranges"),
    HeaderField("accept"),
    HeaderField("access-control-allow-origin"),
    HeaderField("age"),
    HeaderField("allow"),
    HeaderField("authorization"),
    HeaderField("cache-control"),
    HeaderField("content-disposition"),
    HeaderField("content-encoding"),
    HeaderField("content-language"),
    HeaderField("content-length"),
    HeaderField("content-location"),
    HeaderField("content-range"),
    HeaderField("content-type"),
    HeaderField("cookie"),
    HeaderField("date"),
    HeaderField("etag"),
    HeaderField("expect"),
    HeaderField("expires"),
    HeaderField("from"),
    HeaderField("host"),
    HeaderField("if-match"),
    HeaderField("if-modified-since"),
    HeaderField("if-none-match"),
    HeaderField("if-range"),
    HeaderField("if-unmodified-since"),
    HeaderField("last-modified"),
    HeaderField("link"),
    HeaderField("location"),
    HeaderField("max-forwards"),
    HeaderField("proxy-authenticate"),
    HeaderField("proxy-authorization"),
    HeaderField("range"),
    HeaderField("referer"),
    HeaderField("refresh"),
    HeaderField("retry-after"),
    HeaderField("server"),
    HeaderField("set-cookie"),
    HeaderField("strict-transport-security"),
    HeaderField("transfer-encoding"),
    HeaderField("user-agent"),
    HeaderField("vary"),
    HeaderField("via"),
    HeaderField("www-authenticate"),
)


def _first_indices(keys: Iterable[Hashable]) -> Dict[Hashable, int]:
    """Map each key to the 1-based position of its first occurrence."""
    indices: Dict[Hashable, int] = {}
    for index, key in enumerate(keys, start=1):
        indices.setdefault(key, index)
    return indices


#: (name, value) → static index of that exact field.
_STATIC_FULL_INDEX = _first_indices(
    (entry.name, entry.value) for entry in STATIC_TABLE
)
#: name → first static index carrying that name.
_STATIC_NAME_INDEX = _first_indices(entry.name for entry in STATIC_TABLE)


class DynamicTable:
    """The HPACK dynamic table: FIFO eviction, size-bounded, indexed.

    Entries sit in a deque, newest first.  Each insert takes the next
    insertion stamp (0, 1, 2, …).  Eviction removes the oldest entry
    and an oversize insert empties the table, so the live entries carry
    consecutive stamps and the entry stamped ``stamp`` has HPACK index
    ``len(STATIC_TABLE) + inserted − stamp``, where ``inserted`` counts
    every insert so far (the newest entry is index 62).

    Two dicts map each ``(name, value)`` and each name to the newest
    live stamp carrying it, so :meth:`lookup` answers with two dict
    probes instead of a scan.  An evicted entry leaves a dict only when
    it holds that key's newest stamp; otherwise a newer entry still
    carries the key.
    """

    def __init__(self, max_size: int = 4096) -> None:
        if max_size < 0:
            raise ValueError("max size must be non-negative")
        self._entries: Deque[HeaderField] = deque()
        self._size = 0
        self._max_size = max_size
        self._inserted = 0
        #: (name, value) → newest live stamp of that exact field.
        self._field_stamps: Dict[Tuple[str, str], int] = {}
        #: name → newest live stamp carrying that name.
        self._name_stamps: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size(self) -> int:
        """Current occupancy in RFC accounting octets."""
        return self._size

    @property
    def max_size(self) -> int:
        return self._max_size

    def resize(self, max_size: int) -> None:
        """Apply a table-size update, evicting as needed."""
        if max_size < 0:
            raise ValueError("max size must be non-negative")
        self._max_size = max_size
        self._evict()

    def insert(self, field: HeaderField) -> None:
        """Insert at index 1 (the newest position), evicting old entries.

        An entry larger than the whole table empties the table and is
        itself not inserted (RFC 7541 §4.4).
        """
        table_size = field.table_size
        if table_size > self._max_size:
            self._entries.clear()
            self._field_stamps.clear()
            self._name_stamps.clear()
            self._size = 0
            return
        stamp = self._inserted
        self._inserted = stamp + 1
        self._entries.appendleft(field)
        self._field_stamps[(field.name, field.value)] = stamp
        self._name_stamps[field.name] = stamp
        self._size += table_size
        self._evict()

    def _evict(self) -> None:
        entries = self._entries
        while self._size > self._max_size:
            # The oldest live entry carries the lowest live stamp.
            stamp = self._inserted - len(entries)
            evicted = entries.pop()
            self._size -= evicted.table_size
            key = (evicted.name, evicted.value)
            if self._field_stamps[key] == stamp:
                del self._field_stamps[key]
            if self._name_stamps[evicted.name] == stamp:
                del self._name_stamps[evicted.name]

    def lookup(self, field: HeaderField) -> Tuple[Optional[int], Optional[int]]:
        """Find ``field`` across static + dynamic tables.

        Returns:
            ``(full_index, name_index)``: the 1-based index of an exact
            name+value match (or None), and the index of a name-only
            match (or None).  Dynamic indices start at 62.  An exact
            static match wins, then the newest exact dynamic match
            (returned as both indices); without one, the name index is
            the first static entry with the name, else the newest
            dynamic one.
        """
        name = field.name
        key = (name, field.value)
        full_index = _STATIC_FULL_INDEX.get(key)
        if full_index is not None:
            return full_index, full_index
        stamp = self._field_stamps.get(key)
        if stamp is not None:
            full_index = len(STATIC_TABLE) + self._inserted - stamp
            return full_index, full_index
        name_index = _STATIC_NAME_INDEX.get(name)
        if name_index is None:
            stamp = self._name_stamps.get(name)
            if stamp is not None:
                name_index = len(STATIC_TABLE) + self._inserted - stamp
        return None, name_index

    def entry_at(self, index: int) -> HeaderField:
        """Resolve a 1-based HPACK index to its header field.

        Raises:
            IndexError: for indices outside both tables.
        """
        if index < 1:
            raise IndexError(f"invalid HPACK index {index}")
        if index <= len(STATIC_TABLE):
            return STATIC_TABLE[index - 1]
        dynamic_index = index - len(STATIC_TABLE) - 1
        if dynamic_index >= len(self._entries):
            raise IndexError(f"HPACK index {index} beyond dynamic table")
        return self._entries[dynamic_index]
