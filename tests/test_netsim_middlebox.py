"""Unit tests for the middlebox, capture, and topology builder."""

import inspect

import pytest

from repro.netsim.address import Endpoint
from repro.netsim.capture import CaptureLog, Direction, PacketRecord
from repro.netsim.link import Link, LinkConfig
from repro.netsim.middlebox import Middlebox, PacketAction, Verdict
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.topology import build_adversary_path
from repro.simkernel.units import MBPS
from repro.tcp.segment import FLAGS_ACK, FLAGS_FIN_ACK, TCPSegment
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, TLSRecord
from repro.transport.stream import StreamLayout


class _Drop:
    def classify(self, packet, direction, now):
        return Verdict.drop()


class _Delay:
    def __init__(self, delay):
        self.delay = delay

    def classify(self, packet, direction, now):
        return Verdict.delayed(self.delay)


def _wired_middlebox(sim):
    """client — mbox — server with sinks recording arrivals."""
    topo = build_adversary_path(sim=sim, seed=0)
    received = {"client": [], "server": []}
    topo.client.bind(1, lambda p: received["client"].append((sim.now, p)))
    topo.server.bind(2, lambda p: received["server"].append((sim.now, p)))
    return topo, received


def test_middlebox_forwards_both_directions(sim):
    topo, received = _wired_middlebox(sim)
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    topo.server.send(Packet(Endpoint("server", 2), Endpoint("client", 1), None))
    sim.run()
    assert len(received["server"]) == 1
    assert len(received["client"]) == 1
    assert topo.middlebox.forwarded == 2


def test_middlebox_capture_records_direction(sim):
    topo, _ = _wired_middlebox(sim)
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert len(topo.middlebox.capture) == 1
    record = topo.middlebox.capture[0]
    assert record.direction is Direction.CLIENT_TO_SERVER


def test_middlebox_drop_filter(sim):
    topo, received = _wired_middlebox(sim)
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Drop())
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert received["server"] == []
    assert topo.middlebox.dropped == 1
    assert topo.middlebox.capture[0].dropped_by_adversary


def test_middlebox_drop_only_applies_to_direction(sim):
    topo, received = _wired_middlebox(sim)
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Drop())
    topo.server.send(Packet(Endpoint("server", 2), Endpoint("client", 1), None))
    sim.run()
    assert len(received["client"]) == 1


def test_middlebox_delay_filter(sim):
    topo, received = _wired_middlebox(sim)
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Delay(0.5))
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert received["server"][0][0] >= 0.5


def test_middlebox_delays_accumulate_across_filters(sim):
    topo, received = _wired_middlebox(sim)
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Delay(0.2))
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Delay(0.3))
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert received["server"][0][0] >= 0.5


def test_middlebox_forwards_zero_delay_packets_inside_the_ingress_event(sim):
    topo, received = _wired_middlebox(sim)
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert len(received["server"]) == 1
    # Two link deliveries; the forward between them ran inline.
    assert sim.events_executed == 2


def test_middlebox_delay_absorbed_by_the_clock_is_recorded_then_forwarded(sim):
    topo, received = _wired_middlebox(sim)
    # now + 1e-300 == now: the release time is the arrival time, but a
    # delay verdict was given, so it is recorded before the forward.
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Delay(1e-300))
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert len(received["server"]) == 1
    assert [record.category for record in topo.trace] == [
        "link.send", "middlebox.delay", "link.send",
    ]


def test_middlebox_remove_and_clear_filters(sim):
    topo, received = _wired_middlebox(sim)
    drop = _Drop()
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, drop)
    topo.middlebox.remove_filter(Direction.CLIENT_TO_SERVER, drop)
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert len(received["server"]) == 1
    topo.middlebox.add_filter(Direction.CLIENT_TO_SERVER, _Drop())
    topo.middlebox.clear_filters()
    topo.client.send(Packet(Endpoint("client", 1), Endpoint("server", 2), None))
    sim.run()
    assert len(received["server"]) == 2


def test_middlebox_bandwidth_limit_paces(sim):
    topo, received = _wired_middlebox(sim)
    # 8 kbit/s with a 100-byte burst: 40-byte packets conform slowly.
    topo.middlebox.set_bandwidth_limit(8_000, burst_bytes=100)
    for _ in range(5):
        topo.client.send(
            Packet(Endpoint("client", 1), Endpoint("server", 2), None)
        )
    sim.run()
    times = [t for t, _ in received["server"]]
    assert len(times) == 5
    assert times[-1] - times[0] > 0.05  # paced, not a burst


def test_middlebox_bandwidth_limit_lift(sim):
    topo, received = _wired_middlebox(sim)
    topo.middlebox.set_bandwidth_limit(8_000, burst_bytes=100)
    topo.middlebox.set_bandwidth_limit(None)
    for _ in range(5):
        topo.client.send(
            Packet(Endpoint("client", 1), Endpoint("server", 2), None)
        )
    sim.run()
    times = [t for t, _ in received["server"]]
    assert times[-1] - times[0] < 0.01


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(PacketAction.DELAY, delay=-1.0)
    with pytest.raises(ValueError):
        Verdict.delayed(-1)
    assert Verdict.forward().action is PacketAction.FORWARD
    assert Verdict.drop().action is PacketAction.DROP
    assert Verdict.delayed(0.1).delay == 0.1
    # forward/drop verdicts are immutable, so each is one shared instance.
    assert Verdict.forward() is Verdict.forward()
    assert Verdict.drop() is Verdict.drop()


# -- CaptureLog / PacketRecord ------------------------------------------------

def _record(direction, time=0.0, payload=0, content_types=(), dropped=False):
    return PacketRecord(
        time=time, direction=direction, packet_id=1, wire_size=40 + payload,
        payload_bytes=payload, flags=(), seq=0, ack=0,
        tls_content_types=tuple(content_types),
        dropped_by_adversary=dropped,
    )


def test_capture_in_direction_excludes_dropped():
    log = CaptureLog()
    log.append(_record(Direction.CLIENT_TO_SERVER))
    log.append(_record(Direction.CLIENT_TO_SERVER, dropped=True))
    assert len(log.in_direction(Direction.CLIENT_TO_SERVER)) == 1
    assert len(
        log.in_direction(Direction.CLIENT_TO_SERVER, include_dropped=True)
    ) == 2


def test_capture_application_data_filter():
    log = CaptureLog()
    log.append(_record(Direction.SERVER_TO_CLIENT, content_types=(23,)))
    log.append(_record(Direction.SERVER_TO_CLIENT, content_types=(22,)))
    assert len(log.application_data()) == 1


def test_capture_since_clips():
    log = CaptureLog()
    log.append(_record(Direction.SERVER_TO_CLIENT, time=1.0))
    log.append(_record(Direction.SERVER_TO_CLIENT, time=2.0))
    assert len(log.since(1.5)) == 1


def test_record_is_application_stream_continuation():
    record = _record(Direction.SERVER_TO_CLIENT, payload=500, content_types=())
    assert record.is_application_stream
    handshake = _record(
        Direction.SERVER_TO_CLIENT, payload=500, content_types=(22,)
    )
    assert not handshake.is_application_stream
    empty = _record(Direction.SERVER_TO_CLIENT, payload=0)
    assert not empty.is_application_stream


def test_record_from_packet_reads_tls_types(sim):
    record_obj = TLSRecord(content_type=23, plaintext_length=100)

    class _Segment:
        seq = 10
        ack = 20
        flags = frozenset({"ACK"})
        payload_bytes = 129
        option_bytes = 12
        tls_records = (record_obj,)

    packet = Packet(Endpoint("a", 1), Endpoint("b", 2), _Segment())
    captured = PacketRecord.from_packet(1.0, Direction.CLIENT_TO_SERVER, packet)
    assert captured.tls_content_types == (23,)
    assert captured.seq == 10
    assert captured.is_application_data


# -- PacketRecord / Verdict contracts -----------------------------------------

_EMPTY = inspect.Parameter.empty


def _full_record():
    return PacketRecord(
        time=1.5, direction=Direction.CLIENT_TO_SERVER, packet_id=7,
        wire_size=569, payload_bytes=517, flags=("ACK", "FIN"), seq=10,
        ack=20, tls_content_types=(23, 23), tls_record_lengths=(258, 259),
        dropped_by_adversary=True,
    )


def test_packet_record_fields_order_and_defaults():
    parameters = inspect.signature(PacketRecord).parameters
    assert [(name, p.default) for name, p in parameters.items()] == [
        ("time", _EMPTY), ("direction", _EMPTY), ("packet_id", _EMPTY),
        ("wire_size", _EMPTY), ("payload_bytes", _EMPTY), ("flags", _EMPTY),
        ("seq", _EMPTY), ("ack", _EMPTY), ("tls_content_types", _EMPTY),
        ("tls_record_lengths", ()), ("dropped_by_adversary", False),
    ]


def test_packet_record_is_immutable_and_hashable():
    record = _full_record()
    with pytest.raises(AttributeError):
        record.time = 2.0
    with pytest.raises(AttributeError):
        record.dropped_by_adversary = False
    twin = _full_record()
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_packet_record_repr_is_stable():
    assert repr(_full_record()) == (
        "PacketRecord(time=1.5, direction=<Direction.CLIENT_TO_SERVER: "
        "'c2s'>, packet_id=7, wire_size=569, payload_bytes=517, "
        "flags=('ACK', 'FIN'), seq=10, ack=20, tls_content_types=(23, 23), "
        "tls_record_lengths=(258, 259), dropped_by_adversary=True)"
    )


def test_from_packet_without_segment():
    packet = Packet(Endpoint("client", 1), Endpoint("server", 2), None,
                    packet_id=5)
    record = PacketRecord.from_packet(0.5, Direction.CLIENT_TO_SERVER, packet)
    assert record == PacketRecord(
        time=0.5, direction=Direction.CLIENT_TO_SERVER, packet_id=5,
        wire_size=40, payload_bytes=0, flags=(), seq=0, ack=0,
        tls_content_types=(), tls_record_lengths=(),
        dropped_by_adversary=False,
    )


def test_from_packet_pure_ack():
    segment = TCPSegment(seq=100, ack=200, flags=FLAGS_ACK)
    packet = Packet(Endpoint("server", 2), Endpoint("client", 1), segment,
                    packet_id=6)
    record = PacketRecord.from_packet(0.75, Direction.SERVER_TO_CLIENT, packet)
    assert record == PacketRecord(
        time=0.75, direction=Direction.SERVER_TO_CLIENT, packet_id=6,
        wire_size=52, payload_bytes=0, flags=("ACK",), seq=100, ack=200,
        tls_content_types=(),
    )
    assert not record.is_application_data
    assert not record.is_application_stream


def test_from_packet_two_record_fin_ack():
    layout = StreamLayout()
    first = TLSRecord(HANDSHAKE, 40)
    second = TLSRecord(APPLICATION_DATA, 300)
    layout.append(first)
    layout.append(second)
    segment = TCPSegment(
        seq=1000, ack=2000, flags=FLAGS_FIN_ACK,
        payload_bytes=first.wire_length + second.wire_length,
        layout=layout, tls_records=(first, second),
    )
    packet = Packet(Endpoint("server", 2), Endpoint("client", 1), segment,
                    packet_id=7)
    record = PacketRecord.from_packet(
        1.25, Direction.SERVER_TO_CLIENT, packet, dropped=True
    )
    assert record == PacketRecord(
        time=1.25, direction=Direction.SERVER_TO_CLIENT, packet_id=7,
        wire_size=450, payload_bytes=398, flags=("ACK", "FIN"), seq=1000,
        ack=2000, tls_content_types=(22, 23), tls_record_lengths=(69, 329),
        dropped_by_adversary=True,
    )
    assert record.is_application_data
    assert not record.is_application_stream


def test_direction_opposite():
    assert Direction.CLIENT_TO_SERVER.opposite() is Direction.SERVER_TO_CLIENT
    assert Direction.SERVER_TO_CLIENT.opposite() is Direction.CLIENT_TO_SERVER


def test_topology_builder_wires_everything():
    topo = build_adversary_path(seed=3)
    assert topo.client.name == "client"
    assert topo.server.name == "server"
    assert topo.middlebox.name == "gateway"
    assert topo.client_link.config.propagation_delay < \
        topo.server_link.config.propagation_delay
