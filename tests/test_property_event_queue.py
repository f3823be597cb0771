"""Property test: the event queue against a cancel-and-push model.

A restarted timer either moves its queued event in place
(:meth:`EventQueue.postpone`, for a later-or-equal deadline) or cancels
it and pushes a new one (an earlier deadline).  The model knows only the
second way: every restart removes the key and adds a fresh one under the
next sequence number.  After every step the queue and the model must
agree on the live count, on what :meth:`EventQueue.pop_until`,
:meth:`EventQueue.peek_time` and :meth:`EventQueue.has_due` answer, and
every popped event must carry exactly the model's (time, priority,
sequence) key.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel.errors import SchedulingError
from repro.simkernel.event import EventQueue


class _CancelAndPushModel:
    """Live keys by handle; a restart is a cancel plus a fresh push."""

    def __init__(self) -> None:
        self.live = {}
        self.sequence = 0

    def push(self, handle, time, priority):
        self.live[handle] = (time, priority, self.sequence)
        self.sequence += 1

    def restart(self, handle, time):
        _, priority, _ = self.live.pop(handle)
        self.push(handle, time, priority)

    def head(self):
        if not self.live:
            return None
        return min(self.live.items(), key=lambda item: item[1])

    def pop_until(self, until):
        head = self.head()
        if head is None or (until is not None and head[1][0] > until):
            return None
        del self.live[head[0]]
        return head

    def has_due(self, time, priority):
        return any(
            key[0] < time or (key[0] == time and key[1] <= priority)
            for key in self.live.values()
        )


class _QueueHarness:
    """Runs the same steps on a real queue, restarting like ``Timer``."""

    def __init__(self, small_heap: bool) -> None:
        self.queue = EventQueue()
        if small_heap:
            self.queue.COMPACT_MIN_SIZE = 4
        self.model = _CancelAndPushModel()
        self.events = {}
        self.created = 0

    def _pick(self, index):
        handles = sorted(self.events)
        return handles[index % len(handles)] if handles else None

    def _check_popped(self, event, expected):
        if expected is None:
            assert event is None
            return
        handle, key = expected
        assert event is not None
        assert event.callback() == handle
        assert (event.time, event.priority, event.sequence) == key
        del self.events[handle]

    def step(self, op):
        queue, model = self.queue, self.model
        kind = op[0]
        if kind == "push":
            _, time, priority = op
            handle = self.created
            self.created += 1
            self.events[handle] = queue.push(time, priority, lambda h=handle: h)
            model.push(handle, time, priority)
        elif kind == "cancel":
            handle = self._pick(op[1])
            if handle is not None:
                self.events.pop(handle).cancel()
                del model.live[handle]
        elif kind == "restart":
            _, index, time = op
            handle = self._pick(index)
            if handle is not None:
                event = self.events[handle]
                if time >= event.time:
                    queue.postpone(event, time)
                else:
                    event.cancel()
                    self.events[handle] = queue.push(
                        time, event.priority, lambda h=handle: h
                    )
                model.restart(handle, time)
        elif kind == "pop_until":
            self._check_popped(queue.pop_until(op[1]), model.pop_until(op[1]))
        elif kind == "peek":
            head = model.head()
            assert queue.peek_time() == (None if head is None else head[1][0])
        elif kind == "due":
            _, time, priority = op
            assert queue.has_due(time, priority) == model.has_due(time, priority)
        assert len(queue) == len(model.live)

    def drain(self):
        while self.model.live:
            self._check_popped(self.queue.pop(), self.model.pop_until(None))
        assert self.queue.pop() is None
        assert len(self.queue) == 0


times = st.integers(0, 6).map(float)
priorities = st.sampled_from([100, 200])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times, priorities),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("restart"), st.integers(0, 200), times),
        st.tuples(st.just("pop_until"), st.one_of(st.none(), times)),
        st.tuples(st.just("peek")),
        st.tuples(st.just("due"), times, priorities),
    ),
    max_size=150,
)

_SAME_INSTANT = [
    ("push", 1.0, 200), ("push", 1.0, 200), ("restart", 0, 1.0),
    ("due", 1.0, 100), ("due", 1.0, 200),
]
_STALE_AT_UNTIL = [
    ("push", 1.0, 200), ("push", 2.0, 100), ("restart", 0, 3.0),
    ("due", 1.0, 200), ("pop_until", 1.0), ("peek",), ("due", 2.0, 100),
    ("pop_until", 2.0), ("pop_until", 2.0), ("pop_until", 3.0),
]
_CANCEL_AFTER_MOVE = [
    ("push", 1.0, 200), ("push", 4.0, 100), ("restart", 0, 2.0),
    ("restart", 0, 3.0), ("cancel", 0), ("peek",), ("due", 3.0, 200),
    ("pop_until", 3.0),
]
# 70 entries; the last ten move later, then 40 cancels of the oldest
# live handles pass the dead-outnumber-live threshold with the moved
# entries still resident under stale keys.
_COMPACT_WITH_MOVED = (
    [("push", float(i % 5), 100 + 100 * (i % 2)) for i in range(70)]
    + [("restart", 60 + i, 6.0 - (i % 3)) for i in range(10)]
    + [("cancel", 0)] * 40
    + [("peek",), ("due", 5.0, 100), ("pop_until", 4.0)]
)


@given(operations, st.booleans())
@settings(max_examples=300, deadline=None)
@example(_SAME_INSTANT, False)
@example(_STALE_AT_UNTIL, False)
@example(_CANCEL_AFTER_MOVE, False)
@example(_COMPACT_WITH_MOVED, False)
def test_queue_matches_cancel_and_push_model(ops, small_heap):
    harness = _QueueHarness(small_heap)
    for op in ops:
        harness.step(op)
    harness.drain()


def test_compaction_example_compacts_with_moved_entries_resident():
    harness = _QueueHarness(small_heap=False)
    for op in _COMPACT_WITH_MOVED[:80]:
        harness.step(op)
    moved = [harness.events[60 + i] for i in range(10)]
    stale = [entry for entry in harness.queue._heap if entry[2] != entry[3].sequence]
    assert {entry[3] for entry in stale} == set(moved)
    for op in _COMPACT_WITH_MOVED[80:120]:
        harness.step(op)
    assert len(harness.queue._heap) < 70  # compacted
    harness.drain()


def test_postpone_rejects_earlier_times_and_detached_events():
    queue = EventQueue()
    event = queue.push(2.0, 200, lambda: None)
    with pytest.raises(SchedulingError):
        queue.postpone(event, 1.0)
    queue.postpone(event, 2.0)
    assert queue.pop() is event
    with pytest.raises(SchedulingError):
        queue.postpone(event, 3.0)  # already popped
    cancelled = queue.push(1.0, 100, lambda: None)
    cancelled.cancel()
    with pytest.raises(SchedulingError):
        queue.postpone(cancelled, 3.0)
