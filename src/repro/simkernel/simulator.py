"""The simulator: a virtual clock driving an event queue."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simkernel.errors import SchedulingError
from repro.simkernel.event import Event, EventQueue


class Simulator:
    """Owns the virtual clock and executes events in time order.

    A single ``Simulator`` instance is shared by every component of a
    testbed (links, TCP endpoints, HTTP/2 peers, the adversary).  Time
    only advances inside :meth:`run` / :meth:`run_until`; callbacks run
    synchronously at their scheduled instant.
    """

    #: Default event priority.  Packet deliveries use this.
    PRIORITY_NORMAL = 100
    #: Timers fire after same-instant packet deliveries.
    PRIORITY_TIMER = 200

    def __init__(self) -> None:
        self._queue = EventQueue()
        # Bound method, hoisted: schedule() runs hundreds of thousands
        # of times per trial and the extra attribute hop is measurable.
        self._push = self._queue.push
        #: Current simulated time, in seconds.  A plain attribute, read
        #: thousands of times per trial; only the run loop,
        #: :meth:`run_until` and :meth:`reset` write it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled ones excluded).

        Work a callback does inline counts toward its own event: a
        middlebox forward run inside its ingress event (see
        :meth:`runs_next`) is not an event of its own.
        """
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events still in the queue."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current time.
            callback: zero-argument callable.
            priority: tie-break for events at the same instant.

        Returns:
            The :class:`Event`, which can be cancelled.

        Raises:
            SchedulingError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past (delay={delay})")
        return self._push(self.now + delay, priority, callback)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        Raises:
            SchedulingError: if ``time`` is earlier than the current time.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self._push(time, priority, callback)

    def call_soon(self, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at the current instant (after pending work)."""
        return self._push(self.now, self.PRIORITY_NORMAL, callback)

    def postpone(self, event: Event, time: float) -> None:
        """Move the pending ``event`` to absolute ``time``, no earlier
        than its current time, ordered exactly as cancelling it and
        scheduling anew at ``time`` would order it (see
        :meth:`EventQueue.postpone`).

        Raises:
            SchedulingError: if the event is not pending or ``time`` is
                earlier than its current time.
        """
        self._queue.postpone(event, time)

    def runs_next(self, priority: int = PRIORITY_NORMAL) -> bool:
        """Whether an event scheduled now at ``priority`` would be the
        next one the running loop dispatches.

        True while the loop is running with no :meth:`stop` pending and
        no live event due at ``(now, <= priority)``; the new event would
        take the largest sequence number, so it would follow every such
        event.  A caller may then run the callback inline instead of
        scheduling it, with the same order of everything that happens.
        """
        return (
            self._running
            and not self._stopped
            and not self._queue.has_due(self.now, priority)
        )

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, :meth:`stop` is called, or
        ``max_events`` events have been dispatched (work a callback runs
        inline counts toward its own event; see :attr:`events_executed`).

        Raises:
            SchedulingError: on re-entrant invocation.
        """
        self._run_loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> None:
        """Run events with ``time <= until`` and leave the clock at
        ``until`` (or at the stop point if stopped early)."""
        self._run_loop(until=until, max_events=max_events)
        if not self._stopped and self.now < until:
            self.now = until
        self._stopped = False

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> None:
        if self._running:
            raise SchedulingError("simulator run loop is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        pop_until = self._queue.pop_until
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                event = pop_until(until)
                if event is None:
                    break
                self.now = event.time
                event.callback()
                executed += 1
                self._events_executed += 1
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero.

        For test fixtures and for a finished trial's release (see
        :meth:`repro.experiments.harness.TrialResult.release`); the
        cleared events drop their callbacks, so live components holding
        timer references must not be reused across a reset.
        """
        self._queue.clear()
        self.now = 0.0
        self._stopped = False

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
