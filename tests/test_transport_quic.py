"""The pluggable transport layer and the QUIC-like datagram transport.

Covers the registry/env resolution seam, reliable delivery of the QUIC
transport under loss (including many permanent packet-number holes),
and the full HTTP/2 stack running over ``transport="quic"``.
"""

import pytest

from repro.h2.client import H2Client
from repro.h2.server import H2Server, ResourceSpec, ServerConfig
from repro.netsim.capture import Direction
from repro.netsim.link import LinkConfig
from repro.netsim.middlebox import Verdict
from repro.netsim.topology import build_adversary_path
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.transport import (
    TRANSPORT_ENV,
    Transport,
    get_transport,
    resolve_transport,
)
from repro.transport.quic import QuicConfig, QuicConnection, QuicListener


class _Msg:
    def __init__(self, length, name):
        self.wire_length = length
        self.name = name


# ---------------------------------------------------------------------------
# Resolution and registry
# ---------------------------------------------------------------------------


def test_resolve_transport_defaults_to_tcp(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    assert resolve_transport() == "tcp"
    assert resolve_transport(None) == "tcp"


def test_resolve_transport_env_and_argument_precedence(monkeypatch):
    monkeypatch.setenv(TRANSPORT_ENV, "quic")
    assert resolve_transport() == "quic"
    # An explicit argument always beats the environment.
    assert resolve_transport("tcp") == "tcp"


def test_resolve_transport_normalizes_and_rejects(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    assert resolve_transport(" QUIC ") == "quic"
    with pytest.raises(ValueError, match="unknown transport"):
        resolve_transport("sctp")
    monkeypatch.setenv(TRANSPORT_ENV, "sctp")
    with pytest.raises(ValueError, match="unknown transport"):
        resolve_transport()


def test_builtin_factories_registered(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    assert get_transport("tcp").name == "tcp"
    assert get_transport("quic").name == "quic"
    assert get_transport().name == "tcp"


def test_tcp_server_config_carries_duplicate_quirk():
    factory = get_transport("tcp")
    explicit = TCPConfig(mss=900)
    assert factory.server_config(explicit, True) is explicit
    assert factory.server_config(None, True).deliver_duplicate_messages
    assert not factory.server_config(None, False).deliver_duplicate_messages


def test_quic_config_adapts_tcp_config():
    adapted = QuicConfig.adapt(TCPConfig(mss=900, congestion_control="cubic"))
    assert adapted.max_datagram_payload == 900
    assert adapted.congestion_control == "cubic"
    assert QuicConfig.adapt(None) == QuicConfig()


def test_connections_satisfy_transport_protocol():
    topology = build_adversary_path(seed=3)
    tcp = TCPConnection(
        topology.sim, topology.client, 50_000, topology.server.endpoint(443)
    )
    quic = QuicConnection(
        topology.sim, topology.client, 50_001, topology.server.endpoint(444)
    )
    assert isinstance(tcp, Transport)
    assert isinstance(quic, Transport)


# ---------------------------------------------------------------------------
# QUIC reliable delivery
# ---------------------------------------------------------------------------


def _quic_pair(seed, loss=0.0):
    topology = build_adversary_path(
        seed=seed,
        server_link_config=LinkConfig(propagation_delay=0.01, loss_rate=loss),
    )
    sim = topology.sim
    accepted = []
    QuicListener(sim, topology.server, 443, accepted.append)
    client = QuicConnection(
        sim, topology.client, 50_000, topology.server.endpoint(443)
    )
    return topology, sim, accepted, client


@pytest.mark.parametrize("loss", [0.0, 0.05, 0.12])
@pytest.mark.parametrize("seed", [1, 17])
def test_quic_delivers_all_messages_in_order_despite_loss(seed, loss):
    topology, sim, accepted, client = _quic_pair(seed, loss)
    received = []
    client.connect()
    sim.run_until(20.0)
    assert accepted, "handshake must eventually complete"
    accepted[0].on_message = lambda m, dup: received.append((m.name, dup))
    lengths = [1, 800, 15_000, 3, 40_000, 1200, 7]
    for index, length in enumerate(lengths):
        client.send_message(_Msg(length, index))
    sim.run_until(120.0)
    names = [name for name, _ in received]
    assert names == list(range(len(lengths)))
    assert all(not dup for _, dup in received)
    if loss:
        assert client.retransmitted_segments > 0


class _DataFrame:
    """Duck-types an HTTP/2 DATA frame, so the message rides its own stream."""

    def __init__(self, stream_id):
        self.stream_id = stream_id
        self.data_bytes = 1


class _StreamMsg(_Msg):
    def __init__(self, length, name, stream_id):
        super().__init__(length, name)
        self.payload = _DataFrame(stream_id)


class _DropEveryKthData:
    """Drops every k-th data datagram; records the longest ack list seen."""

    def __init__(self, k):
        self.k = k
        self.data_seen = 0
        self.longest_ack_list = 0

    def classify(self, packet, direction, now):
        datagram = packet.segment
        if direction is Direction.SERVER_TO_CLIENT:
            self.longest_ack_list = max(
                self.longest_ack_list, len(datagram.ack_ranges)
            )
        elif datagram.payload_bytes > 0:
            self.data_seen += 1
            if self.data_seen % self.k == 0:
                return Verdict.drop()
        return Verdict.forward()


def test_quic_many_permanent_packet_number_holes():
    """Every dropped datagram leaves a hole the peer acks around forever."""
    topology, sim, accepted, client = _quic_pair(seed=4)
    dropper = _DropEveryKthData(k=4)
    for direction in (Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT):
        topology.middlebox.add_filter(direction, dropper)
    client.connect()
    sim.run_until(5.0)
    received = []
    accepted[0].on_message = lambda m, dup: received.append(m)
    sent = [
        _StreamMsg(5000, (stream_id, index), stream_id)
        for index in range(20)
        for stream_id in (1, 3, 5, 7, 9, 11)
    ]
    for message in sent:
        client.send_message(message)
    sim.run_until(600.0)

    assert dropper.longest_ack_list > 100
    # Every stream delivers each of its messages once, in order, and
    # reassembles exactly the bytes sent.
    for stream_id in (1, 3, 5, 7, 9, 11):
        names = [m.name for m in received if m.payload.stream_id == stream_id]
        assert names == [(stream_id, index) for index in range(20)]
        rx = accepted[0]._rx_streams[stream_id]
        assert rx.reassembly.rcv_nxt == rx.delivered_upto == 20 * 5000
        assert not rx.reassembly.has_gap
    assert client.retransmitted_segments > 0


def test_quic_clean_link_never_retransmits():
    topology, sim, accepted, client = _quic_pair(seed=5)
    client.connect()
    sim.run_until(5.0)
    for index in range(6):
        client.send_message(_Msg(2000, index))
    sim.run_until(30.0)
    assert client.retransmitted_segments == 0
    assert accepted[0].retransmitted_segments == 0


def test_quic_orderly_close_reaches_both_ends():
    topology, sim, accepted, client = _quic_pair(seed=9)
    closed = []
    client.connect()
    sim.run_until(5.0)
    accepted[0].on_close = lambda reset: closed.append(("server", reset))
    client.on_close = lambda reset: closed.append(("client", reset))
    client.send_message(_Msg(5000, 0))
    sim.run_until(10.0)
    client.close()
    sim.run_until(30.0)
    assert client.is_closed
    assert ("server", False) in closed


# ---------------------------------------------------------------------------
# HTTP/2 over QUIC
# ---------------------------------------------------------------------------

RESOURCES = {
    "/index.html": ResourceSpec("/index.html", 9500, "text/html"),
    "/a.png": ResourceSpec("/a.png", 12000, "image/png"),
    "/b.png": ResourceSpec("/b.png", 15000, "image/png"),
    "/big.js": ResourceSpec("/big.js", 80000, "application/javascript"),
}


def _h2_stack(seed=21, loss=0.0):
    topology = build_adversary_path(
        seed=seed,
        server_link_config=LinkConfig(propagation_delay=0.01, loss_rate=loss),
    )
    server = H2Server(
        topology.sim, topology.server, 443,
        lambda path: RESOURCES.get(path),
        config=ServerConfig(), trace=topology.trace, transport="quic",
    )
    client = H2Client(
        topology.sim, topology.client, topology.server.endpoint(443),
        trace=topology.trace, authority="test.example", transport="quic",
    )
    return topology, server, client


def test_h2_page_load_over_quic():
    topology, server, client = _h2_stack()
    def go():
        for path in RESOURCES:
            client.get(path)
    client.on_ready = go
    client.connect()
    topology.sim.run_until(10.0)
    assert all(handle.complete for handle in client.handles.values())
    sizes = {h.path: h.received_bytes for h in client.handles.values()}
    assert sizes == {path: spec.body_bytes for path, spec in RESOURCES.items()}


def test_h2_over_quic_survives_loss_without_duplicates():
    topology, server, client = _h2_stack(seed=33, loss=0.08)
    def go():
        for path in RESOURCES:
            client.get(path)
    client.on_ready = go
    client.connect()
    topology.sim.run_until(60.0)
    assert all(handle.complete for handle in client.handles.values())
    # QUIC has no wire-level redelivery quirk: the server never sees a
    # retransmitted GET as a new request.
    assert all(
        not instance.duplicate for instance in server.all_instances
    )
    assert client.tcp.retransmitted_segments > 0


def test_h2_harness_trial_runs_over_quic():
    from repro.experiments.harness import TrialConfig, run_trial
    from repro.web.workload import VolunteerWorkload

    result = run_trial(
        0, VolunteerWorkload(seed=11), TrialConfig(transport="quic")
    )
    assert result.completed
    assert result.trace.count(category="quic.established") > 0
    assert result.trace.count(category="tcp.retransmit") == 0


def test_trial_config_rejects_unknown_transport():
    from repro.experiments.harness import TrialConfig

    with pytest.raises(ValueError, match="unknown transport"):
        TrialConfig(transport="carrier-pigeon")


# ---------------------------------------------------------------------------
# Campaign engine integration
# ---------------------------------------------------------------------------


def test_campaign_config_transport_rules():
    from repro.campaign import CampaignConfig

    tcp = CampaignConfig(sessions=10, shard_size=5, mode="full")
    quic = CampaignConfig(sessions=10, shard_size=5, mode="full",
                          transport="quic")
    # Different transports must never share a checkpoint identity.
    assert tcp.digest() != quic.digest()
    with pytest.raises(ValueError, match="unknown transport"):
        CampaignConfig(transport="sctp")
    # The analytic model is calibrated against TCP serialization.
    with pytest.raises(ValueError, match="analytic"):
        CampaignConfig(transport="quic")


def test_campaign_full_mode_session_runs_over_quic():
    from repro.campaign.engine import evaluate_page_full
    from repro.campaign import AnalyticModel
    from repro.web.workload import PopulationWorkload

    workload = PopulationWorkload(seed=13)
    outcome = evaluate_page_full(
        workload.page_spec(0), workload.session_rng(0), AnalyticModel(),
        transport="quic",
    )
    assert not outcome["broken"]
    assert outcome["objects"] > 0
