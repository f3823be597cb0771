"""Structured trace log.

Components append records (a timestamp, a category string such as
``"tcp.retransmit"`` or ``"h2.rst_stream"``, and named fields).
The experiment harness filters and counts records to compute the
paper's metrics — e.g. Table I's "increase in number of
retransmissions" is a count of ``tcp.retransmit`` records.

The log is built for a hot append path and a cold query path:

* :meth:`TraceLog.record` stores a plain ``(time, category, keys,
  values)`` tuple — no record object, no field dict, no string
  formatting.  ``keys`` is a module-level tuple of field names kept
  next to each emitter, so a row costs one tuple of values.  Thousands
  of records are appended per trial; almost none are ever looked at.
* :class:`TraceRecord` objects are materialized lazily, only for the
  records a query (:meth:`TraceLog.select`, iteration, indexing)
  actually touches, with their ``fields`` dict zipped from the names
  and values then, and cached so repeated queries return the same
  objects.
* Human-readable lines (:meth:`TraceRecord.render`,
  :meth:`TraceLog.render_lines`) are formatted only when a report or
  inspection tool asks for them — never on the record path.

A per-category index keeps the exact-category queries the harness
makes several times per trial (:meth:`TraceLog.select` /
:meth:`TraceLog.count`) from scanning every record ever logged.  The
append path does not maintain it: the first query builds it, and each
later query extends it over the records appended since.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def format_record(time: float, category: str, fields: Dict[str, Any]) -> str:
    """The canonical one-line rendering of a trace record.

    Kept as a module-level function so eager-formatting references (in
    tests and benchmarks) and the lazy :meth:`TraceRecord.render` are
    guaranteed to agree.
    """
    parts = [f"{time:10.6f}", category]
    parts.extend(f"{key}={value!r}" for key, value in fields.items())
    return " ".join(parts)


class TraceRecord:
    """One structured log entry, materialized lazily by the log.

    ``fields`` maps each field name to its value, in the order the
    emitter listed the names.
    """

    __slots__ = ("time", "category", "fields")

    def __init__(
        self, time: float, category: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        self.time = time
        self.category = category
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def render(self) -> str:
        """Format this record as a one-line string (lazy; never done on
        the append path)."""
        return format_record(self.time, self.category, self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.fields == other.fields
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


class TraceLog:
    """An append-only, filterable event log shared by a testbed.

    :meth:`record` appends one ``(time, category, keys, values)`` tuple
    and does nothing else; the per-category index the queries use is
    brought up to date by the queries themselves (:meth:`_indexed`), so
    a trial that records thousands of rows and queries a few categories
    pays for the index once, at its first query.
    """

    def __init__(self, enabled: bool = True) -> None:
        #: Raw rows: ``(time, category, keys, values)`` tuples, append
        #: order.
        self._raw: List[tuple] = []
        #: index → materialized record, filled lazily by :meth:`_get`.
        self._cache: Dict[int, TraceRecord] = {}
        #: category → indices into ``_raw``, in append order, covering
        #: the first ``_index_end`` rows (categories in first-seen order).
        self._by_category: Dict[str, List[int]] = {}
        self._index_end = 0
        self.enabled = enabled

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[TraceRecord]:
        get = self._get
        return (get(index) for index in range(len(self._raw)))

    def __getitem__(self, index: int) -> TraceRecord:
        if index < 0:
            index += len(self._raw)
        if not 0 <= index < len(self._raw):
            raise IndexError("trace record index out of range")
        return self._get(index)

    def record(
        self,
        time: float,
        category: str,
        keys: Tuple[str, ...] = (),
        values: Tuple[Any, ...] = (),
    ) -> None:
        """Append one record (a no-op when the log is disabled).

        ``keys`` names the fields and ``values`` holds them, position by
        position; the record's ``fields`` is ``dict(zip(keys, values))``.
        Emitters pass a module-level ``keys`` tuple per row shape.
        """
        if self.enabled:
            self._raw.append((time, category, keys, values))

    def _indexed(self) -> Dict[str, List[int]]:
        """The per-category index, extended over the rows appended since
        the last query."""
        raw = self._raw
        by_category = self._by_category
        for index in range(self._index_end, len(raw)):
            category = raw[index][1]
            bucket = by_category.get(category)
            if bucket is None:
                by_category[category] = [index]
            else:
                bucket.append(index)
        self._index_end = len(raw)
        return by_category

    def _get(self, index: int) -> TraceRecord:
        """Materialize (and cache) the record at ``index``."""
        record = self._cache.get(index)
        if record is None:
            time, category, keys, values = self._raw[index]
            record = TraceRecord(time, category, dict(zip(keys, values)))
            self._cache[index] = record
        return record

    def _candidate_indices(
        self, category: Optional[str], prefix: Optional[str]
    ) -> Optional[List[int]]:
        """Indices matching the category/prefix filters, in append
        order, or None when a full scan is the right plan (no filter)."""
        if category is not None:
            if prefix is not None and not category.startswith(prefix):
                return []
            return self._indexed().get(category, [])
        if prefix is not None:
            buckets = [
                indices
                for cat, indices in self._indexed().items()
                if cat.startswith(prefix)
            ]
            if not buckets:
                return []
            if len(buckets) == 1:
                return buckets[0]
            merged: List[int] = []
            for bucket in buckets:
                merged.extend(bucket)
            merged.sort()
            return merged
        return None

    def select(
        self,
        category: Optional[str] = None,
        prefix: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Return records matching all the given filters.

        Only the matching records are materialized; a category query
        never touches (or allocates objects for) the rest of the log.

        Args:
            category: exact category match.
            prefix: category prefix match (e.g. ``"tcp."``).
            predicate: arbitrary record filter applied last.
        """
        indices = self._candidate_indices(category, prefix)
        if indices is None:
            indices = range(len(self._raw))
        get = self._get
        if predicate is None:
            return [get(index) for index in indices]
        records = []
        for index in indices:
            record = get(index)
            if predicate(record):
                records.append(record)
        return records

    def count(self, category: Optional[str] = None, prefix: Optional[str] = None) -> int:
        """Count records matching the filters (no materialization)."""
        if category is not None:
            if prefix is not None and not category.startswith(prefix):
                return 0
            return len(self._indexed().get(category, ()))
        if prefix is not None:
            return sum(
                len(indices)
                for cat, indices in self._indexed().items()
                if cat.startswith(prefix)
            )
        return len(self._raw)

    def categories(self) -> Dict[str, int]:
        """Histogram of categories, for quick inspection in tests."""
        return {
            category: len(indices)
            for category, indices in self._indexed().items()
            if indices
        }

    def render_lines(
        self, category: Optional[str] = None, prefix: Optional[str] = None
    ) -> List[str]:
        """Formatted lines for the matching records (lazy rendering)."""
        return [record.render() for record in self.select(category, prefix)]

    def clear(self) -> None:
        """Drop all records."""
        self._raw.clear()
        self._cache.clear()
        self._by_category.clear()
        self._index_end = 0
