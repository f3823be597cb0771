"""Unit tests for links and hosts."""

import pytest

from repro.netsim.address import Endpoint
from repro.netsim.link import Link, LinkConfig
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.units import MBPS


class _Sink:
    def __init__(self):
        self.received = []

    def on_packet(self, packet):
        self.received.append(packet)


def _packet(size_payload=0):
    return Packet(Endpoint("a", 1), Endpoint("b", 2), None)


def test_link_delivers_after_propagation(sim):
    link = Link(sim, LinkConfig(propagation_delay=0.01), name="l")
    sink = _Sink()
    link.b.attach(sink)
    link.a.send(_packet())
    sim.run()
    assert len(sink.received) == 1
    assert sim.now >= 0.01


def test_link_is_full_duplex(sim):
    link = Link(sim, LinkConfig(propagation_delay=0.01))
    sink_a, sink_b = _Sink(), _Sink()
    link.a.attach(sink_a)
    link.b.attach(sink_b)
    link.a.send(_packet())
    link.b.send(_packet())
    sim.run()
    assert len(sink_a.received) == 1
    assert len(sink_b.received) == 1


def test_link_serialization_spaces_packets(sim):
    # 40-byte headers at 1 Mbps → 320 µs each.
    link = Link(sim, LinkConfig(bandwidth_bps=1 * MBPS, propagation_delay=0.0))
    sink = _Sink()
    link.b.attach(sink)
    times = []

    class _Recorder:
        def on_packet(self, packet):
            times.append(sim.now)

    link.b.attach(_Recorder())
    link.a.send(_packet())
    link.a.send(_packet())
    sim.run()
    assert len(times) == 2
    assert times[1] - times[0] == pytest.approx(40 * 8 / 1e6)


def test_link_loss_drops_packets(sim):
    rng = RandomStreams(1)
    link = Link(sim, LinkConfig(loss_rate=0.5), rng=rng, name="lossy")
    sink = _Sink()
    link.b.attach(sink)
    for _ in range(200):
        link.a.send(_packet())
    sim.run()
    assert 40 < len(sink.received) < 160  # ≈100 expected


def test_link_jitter_requires_rng(sim):
    # Without an rng the link could never jitter, so the config is
    # rejected instead of silently meaning nothing.
    with pytest.raises(ValueError, match="jitter=0.01 requires an rng"):
        Link(sim, LinkConfig(jitter=0.01), rng=None)
    Link(sim, LinkConfig(jitter=0.01), rng=RandomStreams(1))


def test_link_fifo_preserved_without_reordering(sim):
    rng = RandomStreams(2)
    link = Link(sim, LinkConfig(jitter=0.05, propagation_delay=0.001),
                rng=rng, name="jittery")
    order = []
    tagged = []

    class _Order:
        def on_packet(self, packet):
            order.append(packet.packet_id)

    link.b.attach(_Order())
    for _ in range(20):
        packet = _packet()
        tagged.append(packet.packet_id)
        link.a.send(packet)
    sim.run()
    assert order == tagged


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(bandwidth_bps=0)
    with pytest.raises(ValueError):
        LinkConfig(propagation_delay=-1)
    with pytest.raises(ValueError):
        LinkConfig(loss_rate=1.5)
    with pytest.raises(ValueError):
        LinkConfig(jitter=-0.1)
    # A link without room for one packet would drop every packet.
    with pytest.raises(ValueError, match="queue capacity"):
        LinkConfig(queue_capacity=0)
    with pytest.raises(ValueError, match="queue capacity"):
        LinkConfig(queue_capacity=-1)
    LinkConfig(queue_capacity=1)


def test_unattached_end_raises(sim):
    link = Link(sim, LinkConfig())
    link.a.send(_packet())
    with pytest.raises(RuntimeError):
        sim.run()


# -- Host ----------------------------------------------------------------

def test_host_dispatches_by_port(sim):
    host = Host(sim, "h")
    received = []
    host.bind(443, received.append)
    packet = Packet(Endpoint("x", 1), Endpoint("h", 443), None)
    host.on_packet(packet)
    assert received == [packet]


def test_host_unrouted_counted(sim):
    host = Host(sim, "h")
    host.on_packet(Packet(Endpoint("x", 1), Endpoint("h", 999), None))
    assert host.unrouted_packets == 1


def test_host_double_bind_raises(sim):
    host = Host(sim, "h")
    host.bind(1, lambda p: None)
    with pytest.raises(RuntimeError):
        host.bind(1, lambda p: None)


def test_host_unbind_releases_port(sim):
    host = Host(sim, "h")
    host.bind(1, lambda p: None)
    host.unbind(1)
    host.bind(1, lambda p: None)  # must not raise


def test_host_send_requires_link(sim):
    host = Host(sim, "h")
    with pytest.raises(RuntimeError):
        host.send(Packet(Endpoint("h", 1), Endpoint("x", 2), None))


def test_host_double_attach_raises(sim, wire):
    _, host_a, _ = wire
    link = Link(sim, LinkConfig())
    with pytest.raises(RuntimeError):
        host_a.attach_link(link.a)
