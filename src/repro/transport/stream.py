"""Symbolic byte-stream layout (transport-neutral).

Applications hand the transport sender *messages* (in this project, TLS
records) with a length; the layout assigns each one the next contiguous
range of the sequence space.  The receiving side uses the same layout
(referenced from arriving segments or datagrams) to turn delivered
sequence ranges back into whole messages.

Messages must expose an integer ``wire_length`` attribute or be passed
with an explicit length.

This module lives under :mod:`repro.transport` so that analysis code
(:mod:`repro.core.metrics`) and every transport implementation share a
single layout type without depending on the TCP package.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, List, Optional


@dataclass(frozen=True)
class MessageSpan:
    """A message occupying ``[start, end)`` in the sequence space."""

    start: int
    end: int
    message: Any

    @property
    def length(self) -> int:
        return self.end - self.start


class StreamLayout:
    """Append-only mapping from sequence ranges to messages."""

    def __init__(self, initial_seq: int = 0) -> None:
        self._spans: List[MessageSpan] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._next_seq = initial_seq
        self.initial_seq = initial_seq

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def next_seq(self) -> int:
        """First unassigned sequence number."""
        return self._next_seq

    def append(self, message: Any, length: Optional[int] = None) -> MessageSpan:
        """Assign the next range to ``message`` and return its span.

        Args:
            message: the application message object.
            length: explicit byte length; defaults to
                ``message.wire_length``.

        Raises:
            ValueError: if the length is missing or not positive.
        """
        if length is None:
            length = getattr(message, "wire_length", None)
        if length is None or length <= 0:
            raise ValueError(f"message needs a positive length, got {length!r}")
        span = MessageSpan(self._next_seq, self._next_seq + length, message)
        self._spans.append(span)
        self._starts.append(span.start)
        self._ends.append(span.end)
        self._next_seq = span.end
        return span

    # Spans tile the sequence space in order, so both ``_starts`` and
    # ``_ends`` are strictly increasing: each range query below is two
    # bisections and one slice.

    def spans_overlapping(self, start: int, end: int) -> List[MessageSpan]:
        """All spans intersecting ``[start, end)``."""
        if end <= start:
            return []
        low = bisect.bisect_right(self._ends, start)
        high = bisect.bisect_left(self._starts, end)
        return self._spans[low:high]

    def spans_contained(self, start: int, end: int) -> List[MessageSpan]:
        """Spans lying entirely inside ``[start, end)``."""
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._ends, end)
        return self._spans[low:high]

    def spans_starting_in(self, start: int, end: int) -> List[MessageSpan]:
        """Spans whose first byte falls inside ``[start, end)``.

        This is what a per-packet observer (tshark) sees: a TLS record
        header is visible in the packet where the record begins.
        """
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_left(self._starts, end)
        return self._spans[low:high]

    def spans_completed_by(self, upto: int) -> List[MessageSpan]:
        """Spans that end at or before sequence number ``upto``.

        Spans are contiguous, so their end offsets are strictly
        increasing and one bisection finds the cut point.
        """
        return self._spans[: bisect.bisect_right(self._ends, upto)]

    def spans_completed_in(self, after: int, upto: int) -> List[MessageSpan]:
        """Spans with ``after < end <= upto``, in stream order.

        This is the receiver's delivery query: spans newly completed by
        an advance of the in-order frontier from ``after`` to ``upto``.
        Bisecting both bounds keeps repeated deliveries from rescanning
        every span delivered so far (the old linear scan made receive
        processing quadratic in the number of messages).
        """
        low = bisect.bisect_right(self._ends, after)
        high = bisect.bisect_right(self._ends, upto)
        return self._spans[low:high]
