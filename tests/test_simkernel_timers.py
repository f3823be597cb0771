"""Unit tests for restartable timers and processes."""

import pytest

from repro.simkernel.errors import SchedulingError, SimulationError
from repro.simkernel.process import Process
from repro.simkernel.timers import Timer


def test_timer_fires_once(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]
    assert not timer.armed


def test_timer_restart_supersedes(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.schedule(1.0, lambda: timer.start(5.0))
    sim.run()
    assert fired == [6.0]


def test_timer_cancel(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(2.0)
    sim.schedule(1.0, timer.cancel)
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_cancel_idle_is_noop(sim):
    timer = Timer(sim, lambda: None)
    timer.cancel()  # must not raise
    assert timer.expiry is None


def test_timer_expiry_reports_deadline(sim):
    timer = Timer(sim, lambda: None)
    timer.start(3.0)
    assert timer.expiry == 3.0


def test_timer_can_rearm_after_firing(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0]


def test_process_yields_delays(sim):
    log = []

    def script():
        log.append(("start", sim.now))
        yield 1.0
        log.append(("middle", sim.now))
        yield 2.0
        log.append(("end", sim.now))

    process = Process(sim, script())
    process.start()
    sim.run()
    assert log == [("start", 0.0), ("middle", 1.0), ("end", 3.0)]
    assert process.finished


def test_process_start_delay(sim):
    times = []

    def script():
        times.append(sim.now)
        yield 0.5
        times.append(sim.now)

    Process(sim, script()).start(delay=2.0)
    sim.run()
    assert times == [2.0, 2.5]


def test_process_double_start_raises(sim):
    def script():
        yield 1.0

    process = Process(sim, script()).start()
    with pytest.raises(SimulationError):
        process.start()


def test_process_stop_aborts(sim):
    log = []

    def script():
        log.append("a")
        yield 1.0
        log.append("b")

    process = Process(sim, script()).start()
    sim.schedule(0.5, process.stop)
    sim.run()
    assert log == ["a"]
    assert process.finished


def test_process_negative_yield_raises(sim):
    def script():
        yield -1.0

    Process(sim, script()).start()
    with pytest.raises(SimulationError):
        sim.run()


def test_timer_restart_later_moves_its_event_in_place(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(("timer", sim.now)))
    other = Timer(sim, lambda: fired.append(("other", sim.now)))
    timer.start(1.0)
    event = timer._event
    other.start(2.0)
    timer.start(2.0)  # later: the same event, re-keyed after ``other``
    assert timer._event is event
    assert timer.expiry == 2.0
    timer.start(0.5)  # earlier: cancelled and scheduled anew
    assert timer._event is not event and event.cancelled
    timer.start(2.0)
    sim.run()
    assert fired == [("other", 2.0), ("timer", 2.0)]
    assert sim.pending_events == 0


def test_timer_negative_restart_still_raises(sim):
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    with pytest.raises(SchedulingError):
        timer.start(-1.0)
