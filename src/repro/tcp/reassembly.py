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
        if end <= start:
            return self._rcv_nxt, True
        if end <= self._rcv_nxt:
            self.duplicate_bytes += end - start
            return self._rcv_nxt, True

        clipped_start = max(start, self._rcv_nxt)
        new_bytes = self._insert(clipped_start, end)
        if not new_bytes:
            self.duplicate_bytes += end - start
        self._advance()
        return self._rcv_nxt, not new_bytes

    def _insert(self, start: int, end: int) -> bool:
        """Merge non-empty ``[start, end)`` into the buffered set; True
        if it added at least one new byte."""
        segments = self._segments
        # The block of segments touching [start, end), adjacency included.
        lo = bisect_left(segments, start, key=_END)
        hi = bisect_right(segments, end, lo=lo, key=_START)
        if lo == hi:
            segments.insert(lo, (start, end))
            return True
        # With two or more segments in the block, end > first_end: the
        # gap after the first one gets filled.
        first_start, first_end = segments[lo]
        added = start < first_start or end > first_end
        last_end = segments[hi - 1][1]
        segments[lo:hi] = [(min(start, first_start), max(end, last_end))]
        return added

    def _advance(self) -> None:
        while self._segments and self._segments[0][0] <= self._rcv_nxt:
            seg_start, seg_end = self._segments.pop(0)
            if seg_end > self._rcv_nxt:
                self._rcv_nxt = seg_end
