"""Tests for the chaos layer (repro.netsim.faults).

Covers the impairment specs, their runtime behaviour on a Link and a
Middlebox, and the load-bearing determinism property: the same seed
realizes the same faults, so a whole faulted trial is byte-identical
across runs.
"""

import pytest

from repro.core.adversary import AdversaryConfig
from repro.netsim.address import Endpoint
from repro.netsim.capture import Direction
from repro.netsim.faults import (
    BandwidthDip,
    DelaySpike,
    Duplication,
    FaultSchedule,
    GilbertElliottLoss,
    Outage,
    ReorderWindow,
    flaps,
)
from repro.netsim.link import Link, LinkConfig
from repro.netsim.middlebox import Middlebox
from repro.netsim.packet import Packet
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.trace import TraceLog
from repro.simkernel.units import MBPS


class _Sink:
    def __init__(self):
        self.received = []
        self.times = []

    def on_packet(self, packet):
        self.received.append(packet)


def _packet():
    return Packet(Endpoint("a", 1), Endpoint("b", 2), None)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_impairment_window_validation():
    with pytest.raises(ValueError):
        Outage(start=-1.0, duration=1.0)
    with pytest.raises(ValueError):
        Outage(start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss(bad_loss=1.5)
    with pytest.raises(ValueError):
        GilbertElliottLoss(mean_good=0.0)
    with pytest.raises(ValueError):
        BandwidthDip(start=0.0, duration=1.0, factor=1.0)
    with pytest.raises(ValueError):
        BandwidthDip(start=0.0, duration=1.0, factor=0.0)
    with pytest.raises(ValueError):
        DelaySpike(start=0.0, duration=1.0, delay=0.0)
    with pytest.raises(ValueError):
        DelaySpike(start=0.0, duration=1.0, delay=-0.1)
    with pytest.raises(ValueError):
        Duplication(start=0.0, duration=1.0, probability=0.0)
    with pytest.raises(ValueError):
        ReorderWindow(start=0.0, duration=1.0, probability=2.0, max_delay=0.01)
    with pytest.raises(ValueError):
        ReorderWindow(start=0.0, duration=1.0, probability=0.5, max_delay=0.0)


def test_flaps_builds_repeated_outages():
    cycle = flaps(start=1.0, count=3, down=0.5, up=1.0)
    assert [outage.start for outage in cycle] == [1.0, 2.5, 4.0]
    assert all(outage.duration == 0.5 for outage in cycle)
    with pytest.raises(ValueError):
        flaps(start=0.0, count=0, down=1.0, up=1.0)
    with pytest.raises(ValueError):
        flaps(start=0.0, count=1, down=1.0, up=0.0)


def test_schedule_composition():
    empty = FaultSchedule()
    assert not empty and len(empty) == 0
    schedule = empty.extended(Outage(1.0, 2.0))
    assert schedule and len(schedule) == 1
    assert not empty, "extended() must not mutate the original"
    bigger = schedule.extended(Duplication(0.0, 1.0, 0.5))
    assert len(bigger) == 2


def test_schedule_is_picklable():
    import pickle

    schedule = FaultSchedule(
        (GilbertElliottLoss(), Outage(1.0, 2.0)) + flaps(5.0, 2, 0.5, 1.0)
    )
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone == schedule


# ---------------------------------------------------------------------------
# Link-level behaviour
# ---------------------------------------------------------------------------

def _faulted_link(sim, schedule, seed=1, trace=None, **config):
    rng = RandomStreams(seed)
    return Link(
        sim, LinkConfig(**config), rng=rng, trace=trace, name="chaotic",
        faults=schedule,
    )


def test_outage_drops_only_inside_window(sim):
    trace = TraceLog()
    link = _faulted_link(
        sim, FaultSchedule((Outage(1.0, 2.0),)), trace=trace,
        propagation_delay=0.001,
    )
    sink = _Sink()
    link.b.attach(sink)
    for when in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(when, lambda: link.a.send(_packet()))
    sim.run()
    assert len(sink.received) == 2  # 0.5 and 3.5 pass; 1.5 and 2.5 drop
    assert link.stats(0)["fault_dropped"] == 2
    assert trace.count(category="link.drop.fault") == 2
    assert link.fault_injector(0).drops == 2
    assert link.fault_injector(1).drops == 0


def test_gilbert_elliott_drops_bursts_deterministically(sim):
    schedule = FaultSchedule(
        (GilbertElliottLoss(mean_good=0.05, mean_bad=0.05),)
    )

    def deliveries(seed):
        local_sim = type(sim)()
        link = _faulted_link(local_sim, schedule, seed=seed)
        sink = _Sink()
        link.b.attach(sink)
        for index in range(200):
            local_sim.schedule_at(
                index * 0.01, lambda: link.a.send(_packet())
            )
        local_sim.run()
        return len(sink.received), link.stats(0)["fault_dropped"]

    delivered, dropped = deliveries(seed=3)
    assert dropped > 0 and delivered > 0  # bursty, not all-or-nothing
    assert delivered + dropped == 200
    assert deliveries(seed=3) == (delivered, dropped)  # same seed, same run
    assert deliveries(seed=4) != (delivered, dropped)  # new seed, new bursts


def test_bandwidth_dip_stretches_serialization(sim):
    # 40-byte headers at 1 Mbps: 320 us clean, 640 us at factor 0.5.
    link = _faulted_link(
        sim, FaultSchedule((BandwidthDip(0.0, 1.0, 0.5),)),
        bandwidth_bps=1 * MBPS, propagation_delay=0.0,
    )
    times = []

    class _Recorder:
        def on_packet(self, packet):
            times.append(sim.now)

    link.b.attach(_Recorder())
    link.a.send(_packet())
    sim.run()
    assert times == [pytest.approx(2 * 40 * 8 / 1e6)]


def test_delay_spike_shifts_arrival(sim):
    link = _faulted_link(
        sim, FaultSchedule((DelaySpike(0.0, 1.0, delay=0.030),)),
        propagation_delay=0.001,
    )
    times = []

    class _Recorder:
        def on_packet(self, packet):
            times.append(sim.now)

    link.b.attach(_Recorder())
    link.a.send(_packet())
    sim.run()
    baseline = 0.001 + 40 * 8 / LinkConfig().bandwidth_bps
    assert times == [pytest.approx(baseline + 0.030)]


def test_duplication_delivers_twice(sim):
    link = _faulted_link(
        sim, FaultSchedule((Duplication(0.0, 1.0, probability=1.0),)),
    )
    sink = _Sink()
    link.b.attach(sink)
    link.a.send(_packet())
    sim.run()
    assert len(sink.received) == 2
    assert sink.received[0].packet_id == sink.received[1].packet_id
    assert link.stats(0)["duplicated"] == 1
    assert link.fault_injector(0).duplicates == 1


def test_reorder_window_lifts_fifo_clamp(sim):
    link = _faulted_link(
        sim,
        FaultSchedule(
            (ReorderWindow(0.0, 10.0, probability=0.5, max_delay=0.050),)
        ),
        propagation_delay=0.001,
    )
    order = []
    sent = []

    class _Order:
        def on_packet(self, packet):
            order.append(packet.packet_id)

    link.b.attach(_Order())
    for index in range(30):
        packet = _packet()
        sent.append(packet.packet_id)
        sim.schedule_at(index * 0.001, lambda p=packet: link.a.send(p))
    sim.run()
    assert sorted(order) == sorted(sent)  # nothing lost
    assert order != sent  # but genuinely reordered


def test_faults_require_rng(sim):
    with pytest.raises(ValueError, match="requires an rng"):
        Link(sim, LinkConfig(), faults=FaultSchedule((Outage(0.0, 1.0),)))


def test_loss_rate_requires_rng(sim):
    # Satellite: a lossy link with no rng would silently never drop.
    with pytest.raises(ValueError, match="loss_rate"):
        Link(sim, LinkConfig(loss_rate=0.3), rng=None)


def test_empty_schedule_changes_nothing(sim):
    rng = RandomStreams(1)
    link = Link(sim, LinkConfig(), rng=rng, faults=FaultSchedule())
    assert link.fault_injector(0) is None


# ---------------------------------------------------------------------------
# Middlebox-level behaviour
# ---------------------------------------------------------------------------

def _wired_middlebox(sim, trace=None):
    box = Middlebox(sim, trace=trace)
    client_link = Link(sim, LinkConfig(propagation_delay=0.001), name="lan")
    server_link = Link(sim, LinkConfig(propagation_delay=0.001), name="wan")
    box.attach_client_side(client_link.a)
    box.attach_server_side(server_link.a)
    client_sink, server_sink = _Sink(), _Sink()
    client_link.b.attach(client_sink)
    server_link.b.attach(server_sink)
    return box, client_link, server_link, client_sink, server_sink


def test_middlebox_fault_drop_is_captured_as_dropped(sim):
    trace = TraceLog()
    box, client_link, _, _, server_sink = _wired_middlebox(sim, trace)
    rng = RandomStreams(9)
    injector = FaultSchedule((Outage(0.0, 1.0),)).bind(rng, "gw.c2s")
    box.install_faults(Direction.CLIENT_TO_SERVER, injector)
    # inject directly at the box, as the link adapter would
    box._ingress(Direction.CLIENT_TO_SERVER, _packet())
    sim.run()
    assert server_sink.received == []
    assert box.fault_dropped == 1
    assert len(box.capture) == 1
    assert box.capture[0].dropped_by_adversary is True
    assert trace.count(category="middlebox.drop.fault") == 1


def test_middlebox_fault_duplication_forwards_twice(sim):
    box, _, _, _, server_sink = _wired_middlebox(sim)
    rng = RandomStreams(9)
    injector = FaultSchedule((Duplication(0.0, 1.0, 1.0),)).bind(rng, "gw")
    box.install_faults(Direction.CLIENT_TO_SERVER, injector)
    box._ingress(Direction.CLIENT_TO_SERVER, _packet())
    sim.run()
    assert len(server_sink.received) == 2
    assert box.forwarded == 2


def test_middlebox_install_faults_clears_with_none(sim):
    box, _, _, _, server_sink = _wired_middlebox(sim)
    rng = RandomStreams(9)
    injector = FaultSchedule((Outage(0.0, 1.0),)).bind(rng, "gw")
    box.install_faults(Direction.CLIENT_TO_SERVER, injector)
    box.install_faults(Direction.CLIENT_TO_SERVER, None)
    box._ingress(Direction.CLIENT_TO_SERVER, _packet())
    sim.run()
    assert len(server_sink.received) == 1
    assert box.fault_dropped == 0


# ---------------------------------------------------------------------------
# The determinism property: same seed => byte-identical faulted trial
# ---------------------------------------------------------------------------

FULL_TAXONOMY = FaultSchedule(
    (
        GilbertElliottLoss(start=0.0, duration=30.0, mean_good=1.0,
                           mean_bad=0.05),
        BandwidthDip(start=2.0, duration=3.0, factor=0.5),
        DelaySpike(start=0.5, duration=1.0, delay=0.010, jitter=0.005),
        ReorderWindow(start=4.0, duration=5.0, probability=0.3,
                      max_delay=0.010),
        Duplication(start=0.0, duration=30.0, probability=0.05),
    )
    + flaps(start=6.0, count=2, down=0.3, up=1.0)
)


def test_identical_seed_gives_byte_identical_faulted_trace():
    """Property: any FaultSchedule active, same seed => same trace."""
    import itertools

    from repro.experiments.harness import TrialConfig, run_trial
    from repro.netsim import packet as packet_module
    from repro.web.workload import VolunteerWorkload

    def run_once():
        # Packet ids come from a process-global counter; reset it so the
        # two in-process runs are comparable byte for byte.
        packet_module._packet_ids = itertools.count(1)
        workload = VolunteerWorkload(seed=7)
        config = TrialConfig(
            adversary=AdversaryConfig(max_drop_retries=1),
            faults=FULL_TAXONOMY,
            fault_location="both",
            horizon=12.0,
        )
        result = run_trial(2, workload, config)
        return (
            [record.render() for record in result.trace],
            list(result.topology.middlebox.capture),
            result.completed,
            result.duration,
        )

    first = run_once()
    second = run_once()
    assert first[0] == second[0]  # byte-identical trace
    assert first[1] == second[1]  # identical capture
    assert first[2:] == second[2:]
    # The schedule actually bit: faults left marks in the trace.
    rendered = "\n".join(first[0])
    assert "link.drop.fault" in rendered or "link.dup" in rendered


def test_fault_realizations_differ_across_seeds():
    from repro.experiments.harness import TrialConfig, run_trial
    from repro.web.workload import VolunteerWorkload

    def fault_drops(trial):
        workload = VolunteerWorkload(seed=7)
        config = TrialConfig(
            faults=FaultSchedule(
                (GilbertElliottLoss(mean_good=0.5, mean_bad=0.1),)
            ),
            fault_location="server",
            horizon=6.0,
        )
        result = run_trial(trial, workload, config)
        return result.trace.count(category="link.drop.fault")

    assert fault_drops(0) != fault_drops(5)
