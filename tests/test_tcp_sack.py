"""Tests for selective acknowledgments."""

import pytest

from repro.netsim.link import LinkConfig
from repro.netsim.topology import build_adversary_path
from repro.tcp.config import TCPConfig
from repro.tcp.connection import TCPConnection
from repro.tcp.listener import TCPListener


class _Msg:
    def __init__(self, length, name):
        self.wire_length = length
        self.name = name


def _transfer(sack: bool, loss: float, seed: int = 13, total_messages: int = 20):
    """A lossy transfer; returns (received names, retransmitted bytes)."""
    topology = build_adversary_path(
        seed=seed,
        server_link_config=LinkConfig(propagation_delay=0.01, loss_rate=loss),
    )
    sim = topology.sim
    config = TCPConfig(sack=sack)
    accepted = []
    TCPListener(sim, topology.server, 443, accepted.append, config=config)
    client = TCPConnection(
        sim, topology.client, 50_000, topology.server.endpoint(443),
        config=config,
    )
    received = []
    client.connect()
    sim.run_until(2.0)
    accepted[0].on_message = lambda m, dup: received.append(m.name)
    for index in range(total_messages):
        client.send_message(_Msg(4_000, index))
    sim.run_until(60.0)
    return received, client.retransmitted_segments


def test_sack_transfer_reliable_under_loss():
    received, _ = _transfer(sack=True, loss=0.08)
    assert received == list(range(20))


def test_sack_sender_sends_around_the_scoreboard(monkeypatch):
    """While the scoreboard holds ranges, no data segment overlaps them."""
    sends = []
    original = TCPConnection._send_data_segment

    def spy(self, seq, length, retransmission):
        sends.append((seq, length, tuple(self._sack_scoreboard)))
        original(self, seq, length, retransmission)

    monkeypatch.setattr(TCPConnection, "_send_data_segment", spy)
    received, retransmitted = _transfer(sack=True, loss=0.08)
    assert received == list(range(20))
    # Counts of this seed's transfer; the scoreboard was in use.
    assert (len(sends), retransmitted) == (62, 5)
    assert sum(1 for _, _, board in sends if board) == 17
    for seq, length, board in sends:
        for start, end in board:
            assert seq + length <= start or seq >= end, (seq, length, board)


def test_sack_reduces_retransmissions_under_loss():
    """SACK retransmits only the holes; go-back-N resends sacked data."""
    _, without_sack = _transfer(sack=False, loss=0.08)
    _, with_sack = _transfer(sack=True, loss=0.08)
    assert with_sack <= without_sack


def test_sack_blocks_advertised_on_out_of_order(wire):
    sim, host_a, host_b = wire
    config = TCPConfig(sack=True)
    accepted = []
    TCPListener(sim, host_b, 443, accepted.append, config=config)
    client = TCPConnection(
        sim, host_a, 50_000, host_b.endpoint(443), config=config
    )
    client.connect()
    sim.run_until(0.1)
    server = accepted[0]
    # Simulate an out-of-order arrival directly on the reassembly
    # buffer, then let the server emit an ACK.
    server.reassembly.receive(5_000, 6_000)
    blocks = server._own_sack_blocks()
    assert blocks == ((5_000, 6_000),)


def test_sack_scoreboard_merging(wire):
    sim, host_a, host_b = wire
    client = TCPConnection(
        sim, host_a, 50_000, host_b.endpoint(443),
        config=TCPConfig(sack=True),
    )
    client._record_sack_blocks([(100, 200), (150, 300), (400, 500)])
    assert client._sack_scoreboard == [(100, 300), (400, 500)]
    assert client._skip_sacked(150) == 300
    assert client._skip_sacked(350) == 350
    assert client._next_sacked_start(150) == 400
    client.snd_una = 250
    client._prune_sack_scoreboard()
    assert client._sack_scoreboard == [(250, 300), (400, 500)]


def test_sack_sender_clips_and_skips_at_sacked_ranges(wire):
    """After a go-back-N rewind, the sender resends only the holes: a
    chunk stops where a sacked range starts, and sacked ranges are
    skipped."""
    sim, host_a, host_b = wire
    config = TCPConfig(sack=True)
    TCPListener(sim, host_b, 443, lambda connection: None, config=config)
    client = TCPConnection(
        sim, host_a, 50_000, host_b.endpoint(443), config=config
    )
    client.connect()
    sim.run_until(0.1)
    sends = []
    client._send_data_segment = (
        lambda seq, length, retransmission:
        sends.append((seq, length, retransmission))
    )
    client.layout.append(_Msg(6_000, "m"))
    client.snd_max = 6_000
    client._sack_scoreboard = [(1_000, 2_500), (3_000, 6_000)]
    client._try_send()
    assert sends == [(0, 1_000, True), (2_500, 500, True)]
    assert client.snd_nxt == 6_000


def test_sack_off_advertises_nothing(wire):
    sim, host_a, host_b = wire
    client = TCPConnection(
        sim, host_a, 50_000, host_b.endpoint(443), config=TCPConfig()
    )
    client.reassembly.receive(5_000, 6_000)
    assert client._own_sack_blocks() == ()


def test_sack_option_bytes_accounted(wire):
    sim, host_a, host_b = wire
    sent = []
    original_send = host_a.send
    host_a.send = lambda packet: (sent.append(packet), original_send(packet))
    client = TCPConnection(
        sim, host_a, 50_000, host_b.endpoint(443),
        config=TCPConfig(sack=True),
    )
    accepted = []
    TCPListener(sim, host_b, 443, accepted.append, config=TCPConfig(sack=True))
    client.connect()
    sim.run_until(0.1)
    client.reassembly.receive(5_000, 6_000)
    sent.clear()
    client._send_ack_now()
    assert sent
    segment = sent[-1].segment
    assert segment.sack_blocks == ((5_000, 6_000),)
    assert segment.option_bytes == 12 + 2 + 8
