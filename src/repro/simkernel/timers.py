"""Restartable timers built on top of the simulator.

TCP needs timers that are started, restarted and cancelled many times
(retransmission timers, delayed-ACK timers); :class:`Timer` wraps that
pattern so callers never juggle raw :class:`~repro.simkernel.event.Event`
handles.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simkernel.event import Event
from repro.simkernel.simulator import Simulator


class Timer:
    """A single-shot timer that can be (re)started and cancelled.

    The callback fires once per start; restarting an armed timer
    replaces the previous deadline.  A restart to a later-or-equal
    deadline moves the armed event in place
    (:meth:`~repro.simkernel.simulator.Simulator.postpone`); an earlier
    one cancels it and schedules a new event.  Either way the timer
    fires under the (time, priority, sequence) key a cancel followed by
    a fresh schedule would give it, so restarts never reorder events —
    but the common restart (a retransmission or ACK timer pushed back)
    allocates nothing and leaves no dead heap entry behind.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "") -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self._expiry: Optional[float] = None
        self.name = name

    @property
    def armed(self) -> bool:
        """True while the timer is counting down."""
        return self._event is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute firing time, or None when the timer is idle."""
        return self._expiry

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        sim = self._sim
        expiry = sim.now + delay
        if self._event is not None and expiry >= self._expiry:
            sim.postpone(self._event, expiry)
            self._expiry = expiry
            return
        self.cancel()
        self._expiry = expiry
        self._event = sim.schedule(
            delay, self._fire, priority=Simulator.PRIORITY_TIMER
        )

    def cancel(self) -> None:
        """Disarm the timer; a no-op when it is already idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
            self._expiry = None

    def _fire(self) -> None:
        self._event = None
        self._expiry = None
        self._callback()

    def __repr__(self) -> str:
        state = f"expires={self._expiry:.6f}" if self.armed else "idle"
        label = f" {self.name!r}" if self.name else ""
        return f"Timer({label} {state})"
