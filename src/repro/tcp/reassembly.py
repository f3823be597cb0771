"""Out-of-order reassembly buffer.

Tracks which parts of the peer's sequence space have arrived, merges
overlapping ranges, and advances the cumulative acknowledgement point.
Lookups bisect the sorted range list, so a QUIC packet-number buffer
with hundreds of permanent holes stays cheap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, Tuple

_START = itemgetter(0)
_END = itemgetter(1)


class ReassemblyBuffer:
    """Byte-range reassembly with a cumulative delivery pointer."""

    def __init__(self, initial_seq: int = 0) -> None:
        self._initial_seq = initial_seq
        self._rcv_nxt = initial_seq
        # Sorted, with a gap between neighbours; every start > rcv_nxt.
        self._segments: List[Tuple[int, int]] = []
        self.duplicate_bytes = 0

    @property
    def rcv_nxt(self) -> int:
        """Next expected sequence number (cumulative ACK point)."""
        return self._rcv_nxt

    @property
    def out_of_order_ranges(self) -> List[Tuple[int, int]]:
        """Buffered ranges beyond the cumulative point (copy)."""
        return list(self._segments)

    def first_ranges(self, count: int) -> Tuple[Tuple[int, int], ...]:
        """The first ``count`` buffered ranges beyond the cumulative
        point (all of them when fewer are buffered)."""
        return tuple(self._segments[:count])

    def received_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Everything received, as sorted and strictly disjoint ranges.

        The cumulative range ``[initial_seq, rcv_nxt)`` comes first when
        it is non-empty, then the out-of-order ranges, which all start
        above ``rcv_nxt``.
        """
        if self._rcv_nxt > self._initial_seq:
            return ((self._initial_seq, self._rcv_nxt), *self._segments)
        return tuple(self._segments)

    @property
    def has_gap(self) -> bool:
        """True when out-of-order data is waiting on a hole."""
        return bool(self._segments)

    def covers(self, start: int, end: int) -> bool:
        """Whether every byte of non-empty ``[start, end)`` has arrived."""
        if end <= self._rcv_nxt:
            return True
        # Buffered ranges all start above rcv_nxt, with gaps between
        # them: only the last one starting at or before ``start`` can.
        index = bisect_right(self._segments, start, key=_START)
        return index > 0 and end <= self._segments[index - 1][1]

    def receive(self, start: int, end: int) -> Tuple[int, bool]:
        """Accept range ``[start, end)``.

        Returns:
            ``(new_rcv_nxt, was_duplicate)`` where ``was_duplicate`` is
            True when the range contributed no new bytes.
        """
        new_bytes = self.merge(start, end)
        return self._rcv_nxt, not new_bytes

    def merge(self, start: int, end: int) -> int:
        """Accept ``[start, end)``; return how many of its bytes are new.

        A non-empty range that covers nothing new counts toward
        ``duplicate_bytes``.
        """
        if end <= start:
            return 0
        rcv_nxt = self._rcv_nxt
        if end <= rcv_nxt:
            self.duplicate_bytes += end - start
            return 0
        segments = self._segments
        if start <= rcv_nxt and (not segments or end < segments[0][0]):
            # In order, and short of the first buffered range (touching
            # it would merge): only the cumulative point moves.
            self._rcv_nxt = end
            return end - rcv_nxt
        new_bytes = self._insert(max(start, rcv_nxt), end)
        if not new_bytes:
            self.duplicate_bytes += end - start
        self._advance()
        return new_bytes

    def _insert(self, start: int, end: int) -> int:
        """Merge non-empty ``[start, end)`` into the buffered set; return
        how many of its bytes were not buffered yet."""
        segments = self._segments
        # The block of segments touching [start, end), adjacency included.
        lo = bisect_left(segments, start, key=_END)
        hi = bisect_right(segments, end, lo=lo, key=_START)
        if lo == hi:
            segments.insert(lo, (start, end))
            return end - start
        # The block and [start, end) together tile the merged range, so
        # the new bytes are what the block's own ranges leave of it.
        first_start, first_end = segments[lo]
        covered = first_end - first_start
        if hi - lo > 1:
            covered += sum(e - s for s, e in segments[lo + 1:hi])
        merged_start = min(start, first_start)
        merged_end = max(end, segments[hi - 1][1])
        segments[lo:hi] = [(merged_start, merged_end)]
        return merged_end - merged_start - covered

    def _advance(self) -> None:
        while self._segments and self._segments[0][0] <= self._rcv_nxt:
            seg_start, seg_end = self._segments.pop(0)
            if seg_end > self._rcv_nxt:
                self._rcv_nxt = seg_end
