"""Columnar streaming summaries for campaign shards.

A million-session campaign must never hold a million per-trial objects.
Every shard folds its sessions into one :class:`ColumnarSummary` the
moment they finish — plain integer counters, sums and fixed-width
histogram arrays (:mod:`array` columns), no
:class:`~repro.experiments.harness.TrialSummary` dataclass survives the
fold — and shards merge pairwise into the campaign total.  Peak memory
is therefore O(shards), independent of the session count.

Exact associativity
-------------------

Shard merge order must never change the merged output (the resumed half
of a killed campaign merges in whatever order the checkpoint yields).
Floating-point addition is not associative, so **every column is an
integer**: durations are folded as microseconds, rates are derived only
at report time.  Integer addition, ``min``/``max`` and element-wise
histogram addition are exactly associative and commutative, which the
test suite asserts by merging shards in shuffled orders and comparing
serialized bytes.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Any, Dict, Iterable

#: Scalar event counters (one increment per session at most).
COUNT_COLUMNS = (
    "sessions",          # sessions folded
    "serialized",        # target served with multiplexing degree 0
    "identified",        # best size match pointed at the target
    "succeeded",         # serialized AND identified (paper criterion)
    "ambiguous",         # >= 1 non-target object inside the tolerance
    "broken",            # page load never completed (full mode only)
)

#: Accumulating integer sums (report-time means divide by ``sessions``).
SUM_COLUMNS = (
    "objects",           # embedded objects per page
    "page_bytes",        # total page body bytes
    "target_bytes",      # target body bytes
    "confusers",         # non-target objects inside the tolerance
    "match_error",       # |observed - expected| wire bytes, identified only
    "duration_us",       # simulated microseconds (full mode only)
)

#: Columns tracked as running minima / maxima over all sessions.
EXTREMA_COLUMNS = ("objects", "page_bytes")

#: log2-bucketed histograms: (name, bucket count).
HISTOGRAMS = (
    ("objects_log2", 12),      # object count buckets [2^0, 2^11]
    ("page_bytes_log2", 40),   # page weight buckets
    ("confusers_log2", 12),    # tolerance-window crowding
)

_SERIAL_VERSION = 1


def _log2_bucket(value: int, buckets: int) -> int:
    """Index of ``value`` in a log2 histogram (0 bucket holds 0)."""
    if value <= 0:
        return 0
    return min(value.bit_length(), buckets - 1)


class ColumnarSummary:
    """Streaming columnar accumulator for one shard (or a whole campaign).

    Fold sessions with :meth:`fold_session`, combine shards with
    :meth:`merge`.  All state is integer-valued, so
    ``a.merge(b)`` == ``b.merge(a)`` bit-for-bit and checkpoint JSON
    round-trips exactly.
    """

    __slots__ = ("counts", "sums", "mins", "maxs", "hists")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_COLUMNS}
        self.sums: Dict[str, int] = {name: 0 for name in SUM_COLUMNS}
        self.mins: Dict[str, int] = {}
        self.maxs: Dict[str, int] = {}
        self.hists: Dict[str, array] = {
            name: array("q", [0] * buckets) for name, buckets in HISTOGRAMS
        }

    # -- folding ---------------------------------------------------------

    def fold_session(
        self,
        *,
        objects: int,
        page_bytes: int,
        target_bytes: int,
        serialized: bool,
        identified: bool,
        confusers: int,
        match_error: int = 0,
        broken: bool = False,
        duration_us: int = 0,
    ) -> None:
        """Fold one finished session; the caller discards its objects."""
        counts = self.counts
        counts["sessions"] += 1
        counts["serialized"] += serialized
        counts["identified"] += identified
        counts["succeeded"] += serialized and identified
        counts["ambiguous"] += confusers > 0
        counts["broken"] += broken
        sums = self.sums
        sums["objects"] += objects
        sums["page_bytes"] += page_bytes
        sums["target_bytes"] += target_bytes
        sums["confusers"] += confusers
        sums["match_error"] += match_error if identified else 0
        sums["duration_us"] += duration_us
        for name, value in (("objects", objects), ("page_bytes", page_bytes)):
            if name not in self.mins or value < self.mins[name]:
                self.mins[name] = value
            if name not in self.maxs or value > self.maxs[name]:
                self.maxs[name] = value
        hists = self.hists
        for name, value in (
            ("objects_log2", objects),
            ("page_bytes_log2", page_bytes),
            ("confusers_log2", confusers),
        ):
            column = hists[name]
            column[_log2_bucket(value, len(column))] += 1

    def fold_batch(
        self,
        *,
        objects,
        page_bytes,
        target_bytes,
        serialized,
        identified,
        confusers,
        match_error,
        broken=None,
        duration_us=None,
    ) -> None:
        """Fold a whole batch of sessions given as integer numpy arrays.

        The vectorized campaign backend's sink: produces *exactly* the
        state ``fold_session`` would after folding the same sessions one
        at a time (integer sums, minima/maxima and bincount histograms
        are order-free), which is what keeps fast-backend campaign
        digests byte-identical to the scalar path.

        ``match_error`` must already be masked to identified sessions
        (zero elsewhere), mirroring the scalar fold's
        ``match_error if identified else 0``.
        """
        import numpy as np

        sessions = int(objects.shape[0])
        if sessions == 0:
            return
        counts = self.counts
        counts["sessions"] += sessions
        counts["serialized"] += int(np.count_nonzero(serialized))
        counts["identified"] += int(np.count_nonzero(identified))
        counts["succeeded"] += int(np.count_nonzero(serialized & identified))
        counts["ambiguous"] += int(np.count_nonzero(confusers > 0))
        if broken is not None:
            counts["broken"] += int(np.count_nonzero(broken))
        sums = self.sums
        sums["objects"] += int(objects.sum())
        sums["page_bytes"] += int(page_bytes.sum())
        sums["target_bytes"] += int(target_bytes.sum())
        sums["confusers"] += int(confusers.sum())
        sums["match_error"] += int(match_error.sum())
        if duration_us is not None:
            sums["duration_us"] += int(duration_us.sum())
        for name, column in (
            ("objects", objects), ("page_bytes", page_bytes)
        ):
            low = int(column.min())
            high = int(column.max())
            if name not in self.mins or low < self.mins[name]:
                self.mins[name] = low
            if name not in self.maxs or high > self.maxs[name]:
                self.maxs[name] = high
        for name, column in (
            ("objects_log2", objects),
            ("page_bytes_log2", page_bytes),
            ("confusers_log2", confusers),
        ):
            hist = self.hists[name]
            buckets = len(hist)
            # frexp's exponent equals bit_length() for exact positive
            # ints below 2^53, matching the scalar _log2_bucket.
            _, exponent = np.frexp(column.astype(np.float64))
            bucket = np.minimum(exponent, buckets - 1)
            bucket[column <= 0] = 0
            folded = np.bincount(bucket, minlength=buckets)
            for index in np.nonzero(folded)[0]:
                hist[index] += int(folded[index])

    def merge(self, other: "ColumnarSummary") -> "ColumnarSummary":
        """Fold another summary into this one (associative, exact)."""
        for name, value in other.counts.items():
            self.counts[name] += value
        for name, value in other.sums.items():
            self.sums[name] += value
        for name, value in other.mins.items():
            if name not in self.mins or value < self.mins[name]:
                self.mins[name] = value
        for name, value in other.maxs.items():
            if name not in self.maxs or value > self.maxs[name]:
                self.maxs[name] = value
        for name, column in other.hists.items():
            mine = self.hists[name]
            for index, value in enumerate(column):
                mine[index] += value
        return self

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Plain-data view; integers only, so JSON round-trips exactly."""
        return {
            "version": _SERIAL_VERSION,
            "counts": dict(self.counts),
            "sums": dict(self.sums),
            "mins": dict(self.mins),
            "maxs": dict(self.maxs),
            "hists": {name: list(column) for name, column in self.hists.items()},
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ColumnarSummary":
        if payload.get("version") != _SERIAL_VERSION:
            raise ValueError(
                f"unsupported columnar summary version "
                f"{payload.get('version')!r}"
            )
        summary = cls()
        summary.counts.update(
            {name: int(value) for name, value in payload["counts"].items()}
        )
        summary.sums.update(
            {name: int(value) for name, value in payload["sums"].items()}
        )
        summary.mins = {
            name: int(value) for name, value in payload["mins"].items()
        }
        summary.maxs = {
            name: int(value) for name, value in payload["maxs"].items()
        }
        for name, values in payload["hists"].items():
            if name not in summary.hists:
                raise ValueError(f"unknown histogram column {name!r}")
            if len(values) != len(summary.hists[name]):
                raise ValueError(f"histogram {name!r} width mismatch")
            summary.hists[name] = array("q", (int(v) for v in values))
        return summary

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form (bit-identity checks)."""
        canonical = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- derived statistics ----------------------------------------------

    @property
    def sessions(self) -> int:
        return self.counts["sessions"]

    def rate(self, name: str) -> float:
        """A count column as a fraction of folded sessions."""
        if self.sessions == 0:
            return 0.0
        return self.counts[name] / self.sessions

    def mean(self, name: str) -> float:
        """A sum column divided by folded sessions."""
        if self.sessions == 0:
            return 0.0
        return self.sums[name] / self.sessions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarSummary):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"ColumnarSummary(sessions={self.sessions})"


def merge_summaries(summaries: Iterable[Any], total: Any = None) -> Any:
    """Streaming left fold of shard summaries into one total.

    Merging is exactly associative (integer columns), so any grouping
    yields the same result; callers still merge in shard-index order by
    convention to make the reduction obviously canonical.  ``total`` is
    the empty summary to fold into (default: a fresh
    :class:`ColumnarSummary`); any summary type with an in-place
    ``merge`` works, which is how the campaign runner folds every
    config's shards.
    """
    if total is None:
        total = ColumnarSummary()
    for summary in summaries:
        total.merge(summary)
    return total
