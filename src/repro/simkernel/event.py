"""Event objects and the binary-heap event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing insertion counter, which makes the
ordering total and the simulation fully deterministic: two events
scheduled for the same instant fire in the order they were scheduled.

The heap stores ``(time, priority, sequence, event)`` tuples rather
than the events themselves, so sift comparisons are plain C tuple
comparisons — the sequence component is unique, so the :class:`Event`
in the last slot is never compared.  This is the single hottest
data structure in the simulator (hundreds of thousands of pushes and
pops per trial).

Cancellation is lazy — a cancelled event stays in the heap and is
skipped when popped — but the queue counts its cancelled residents and
compacts the heap when they outnumber the live ones, so long horizons
with many cancelled retransmit timers do not keep dead events (and the
callbacks they close over) resident.

Postponement is lazy too.  :meth:`EventQueue.postpone` moves a queued
event to a later-or-equal time under the next sequence number — the key
a cancel followed by a fresh push would have given it — but leaves its
heap entry where it is.  That entry's key is then *stale*: never above
the event's own, so it reaches the head no later than the event is due.
Whatever looks at the head (:meth:`EventQueue.pop_until`,
:meth:`EventQueue.peek_time`, :meth:`EventQueue.has_due`) re-files a
stale entry under the event's current key first, so every event is
dispatched under exactly the key a cancel-and-push would have given it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Optional

from repro.simkernel.errors import SchedulingError


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulated time at which the event fires.
        priority: tie-breaker; lower priorities fire first at equal time.
        sequence: insertion counter, the last tie-breaker.
            :meth:`EventQueue.postpone` rewrites it with ``time``.
        callback: zero-argument callable invoked when the event fires.
        cancelled: True once :meth:`cancel` has been called.  Cancelled
            events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], Any],
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so it will be skipped instead of fired.

        Raises:
            SchedulingError: if the event was already cancelled.
        """
        if self.cancelled:
            raise SchedulingError("event cancelled twice")
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()
            self._queue = None

    def _sort_key(self) -> tuple:
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, {state})"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    #: Heaps smaller than this are never compacted — the bookkeeping
    #: would cost more than the dead entries.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        """A resident event was cancelled; compact when the dead
        outnumber the live."""
        self._cancelled += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries (postponed
        ones keep their stale keys and are re-filed at the head)."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._cancelled = 0

    def push(self, time: float, priority: int, callback: Callable[[], Any]) -> Event:
        """Insert a new event and return it (so the caller can cancel it)."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback)
        event._queue = self
        heappush(self._heap, (time, priority, sequence, event))
        return event

    def postpone(self, event: Event, time: float) -> None:
        """Move the queued ``event`` to ``time`` under the next sequence
        number, the key cancelling it and pushing anew would give it.

        The event keeps its heap entry (see the module docstring), so a
        restarted timer costs no allocation and leaves no dead entry.

        Raises:
            SchedulingError: if ``event`` is not live in this queue, or
                ``time`` is earlier than its current time.
        """
        if event._queue is not self:
            raise SchedulingError("only a queued, live event can be postponed")
        if time < event.time:
            raise SchedulingError(
                f"cannot postpone an event from t={event.time} to t={time}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event.time = time
        event.sequence = sequence

    def _head(self) -> Optional[tuple]:
        """The heap's first entry once it holds a live event under that
        event's current key: cancelled entries are discarded and stale
        (postponed) ones re-filed on the way.  None when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
            elif entry[2] != event.sequence:
                heapreplace(heap, (event.time, event.priority, event.sequence, event))
            else:
                return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty.

        Cancelled events encountered on the way are discarded silently.
        """
        return self.pop_until(None)

    def pop_until(self, until: Optional[float]) -> Optional[Event]:
        """Pop the earliest live event firing at or before ``until``.

        Returns None when the queue is empty or the earliest live event
        fires after ``until`` (the event stays queued).  This is the run
        loop's fast path: one heap traversal instead of a peek followed
        by a pop, and a live head under its current key is taken as it
        is (only a cancelled or postponed one goes through
        :meth:`_head`).
        """
        heap = self._heap
        if not heap:
            return None
        entry = heap[0]
        event = entry[3]
        if event.cancelled or entry[2] != event.sequence:
            entry = self._head()
            if entry is None:
                return None
            event = entry[3]
        if until is not None and entry[0] > until:
            return None
        heappop(heap)
        event._queue = None
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or None."""
        entry = self._head()
        return None if entry is None else entry[0]

    def has_due(self, time: float, priority: int) -> bool:
        """Whether a live event is due at or before ``(time, priority)``:
        earlier than ``time``, or at ``time`` with a priority no higher.

        Such an event would fire before one pushed now at ``(time,
        priority)``, which would take the next, largest sequence number.
        """
        heap = self._heap
        if not heap:
            return False
        entry = heap[0]
        event = entry[3]
        if event.cancelled or entry[2] != event.sequence:
            entry = self._head()
            if entry is None:
                return False
        return entry[0] < time or (entry[0] == time and entry[1] <= priority)

    def clear(self) -> None:
        """Drop every pending event and the callback it holds.

        An armed :class:`~repro.simkernel.timers.Timer` and its event
        refer to each other (the timer keeps the event to cancel it, the
        event's callback is the timer's method), so a cleared event that
        kept its callback would keep the pair alive as cyclic garbage.
        """
        for entry in self._heap:
            event = entry[3]
            event._queue = None
            event.callback = None
        self._heap.clear()
        self._cancelled = 0
