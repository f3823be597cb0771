"""Unit tests for the simulator run loop."""

import pytest

from repro.simkernel.errors import SchedulingError
from repro.simkernel.simulator import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_schedule_negative_delay_raises(sim):
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run_until(2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run_until(4.0)
    assert fired == [1, 3]


def test_run_until_event_exactly_at_boundary_fires(sim):
    fired = []
    sim.schedule(2.0, lambda: fired.append(1))
    sim.run_until(2.0)
    assert fired == [1]


def test_stop_halts_run(sim):
    fired = []

    def fire_and_stop():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, fire_and_stop)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_nested_scheduling_from_callbacks(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.5, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 1.5


def test_callback_cancelling_same_instant_event_skips_it(sim):
    order = []
    events = []

    def cancel_third():
        order.append("first")
        events[2].cancel()

    events.append(sim.schedule(0.001, cancel_third))
    events.append(sim.schedule(0.001, lambda: order.append("second")))
    events.append(sim.schedule(0.001, lambda: order.append("third")))
    sim.run()
    assert order == ["first", "second"]
    assert sim.pending_events == 0


def test_compaction_inside_callback_keeps_dispatch_order(sim):
    # A cancellation storm inside a callback compacts the heap, which
    # rebinds the queue's heap list; an event scheduled after the
    # compaction must still fire before the later pending one.
    order = []
    victims = [
        sim.schedule(0.010, lambda: order.append("victim")) for _ in range(64)
    ]

    def cancel_storm():
        order.append("storm")
        for event in victims:
            event.cancel()
        sim.schedule(0.0005, lambda: order.append("interleaved"))

    sim.schedule(0.001, cancel_storm)
    sim.schedule(0.002, lambda: order.append("late"))
    sim.run()
    assert order == ["storm", "interleaved", "late"]
    assert sim.pending_events == 0


def test_call_soon_runs_at_current_time(sim):
    times = []
    sim.schedule(1.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_max_events_limits_execution(sim):
    fired = []
    for index in range(10):
        sim.schedule(float(index + 1), lambda i=index: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_executed_counter(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.events_executed == 2


def test_reentrant_run_raises(sim):
    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SchedulingError):
        sim.run()


def test_reset_rewinds(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_run_until_clock_advances_even_without_events(sim):
    sim.run_until(7.0)
    assert sim.now == 7.0
