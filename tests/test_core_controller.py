"""Unit tests for the adversary's network controller and filters."""

import pytest

from repro.core.controller import (
    GetCounter,
    NetworkController,
    RandomJitterFilter,
    SpacingFilter,
    TargetedDropFilter,
    UniformDelayFilter,
    is_get_like,
)
from repro.netsim.address import Endpoint
from repro.netsim.capture import Direction
from repro.netsim.middlebox import PacketAction
from repro.netsim.packet import Packet
from repro.netsim.topology import build_adversary_path
from repro.simkernel.randomstream import RandomStreams
from repro.tcp.segment import ACK, TCPSegment
from repro.transport.stream import StreamLayout
from repro.tls.record import APPLICATION_DATA, HANDSHAKE, TLSRecord


def _app_packet(payload=150, content_type=APPLICATION_DATA, seq=0):
    """A packet carrying one TLS record of the given type."""
    record = TLSRecord(content_type, max(payload - 29, 1))
    layout = StreamLayout()

    class _Msg:
        wire_length = payload

    layout.append(_Msg())
    segment = TCPSegment(
        seq=seq, ack=0, flags=frozenset({ACK}), payload_bytes=payload,
        layout=layout, tls_records=(record,),
    )
    return Packet(Endpoint("client", 1), Endpoint("server", 443), segment)


def _ack_packet():
    segment = TCPSegment(seq=0, ack=10, flags=frozenset({ACK}))
    return Packet(Endpoint("client", 1), Endpoint("server", 443), segment)


C2S = Direction.CLIENT_TO_SERVER
S2C = Direction.SERVER_TO_CLIENT


# -- is_get_like ---------------------------------------------------------------

def test_get_like_requires_app_record_and_size():
    assert is_get_like(_app_packet(150))
    assert not is_get_like(_app_packet(40))  # too small
    assert not is_get_like(_app_packet(150, content_type=HANDSHAKE))
    assert not is_get_like(_ack_packet())


# -- UniformDelayFilter ---------------------------------------------------------

def test_uniform_delay_applies_constant():
    filt = UniformDelayFilter(0.05, C2S)
    verdict = filt.classify(_app_packet(), C2S, now=1.0)
    assert verdict.action is PacketAction.DELAY
    assert verdict.delay == 0.05


def test_uniform_delay_other_direction_forwards():
    filt = UniformDelayFilter(0.05, C2S)
    assert filt.classify(_app_packet(), S2C, 1.0).action is PacketAction.FORWARD


def test_uniform_delay_disabled():
    filt = UniformDelayFilter(0.05)
    filt.enabled = False
    assert filt.classify(_app_packet(), C2S, 1.0).action is PacketAction.FORWARD


# -- SpacingFilter -------------------------------------------------------------

def test_spacing_first_get_passes():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    verdict = filt.classify(_app_packet(), C2S, now=1.0)
    assert verdict.action is PacketAction.FORWARD


def test_spacing_enforces_min_interval():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    filt.classify(_app_packet(), C2S, now=1.000)
    verdict = filt.classify(_app_packet(), C2S, now=1.001)
    assert verdict.action is PacketAction.DELAY
    assert verdict.delay == pytest.approx(0.049)


def test_spacing_accumulates_over_burst():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    filt.classify(_app_packet(), C2S, now=1.000)
    filt.classify(_app_packet(), C2S, now=1.001)
    verdict = filt.classify(_app_packet(), C2S, now=1.002)
    assert verdict.delay == pytest.approx(0.098)


def test_spacing_naturally_spaced_untouched():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    filt.classify(_app_packet(), C2S, now=1.0)
    verdict = filt.classify(_app_packet(), C2S, now=2.0)
    assert verdict.action is PacketAction.FORWARD


def test_spacing_ignores_acks_and_s2c():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    assert filt.classify(_ack_packet(), C2S, 1.0).action is PacketAction.FORWARD
    assert filt.classify(_app_packet(), S2C, 1.0).action is PacketAction.FORWARD


def test_spacing_noise_adds_to_delay():
    rng = RandomStreams(1)
    filt = SpacingFilter(0.05, noise_fraction=1.0, rng=rng)
    filt.classify(_app_packet(), C2S, now=1.0)
    verdict = filt.classify(_app_packet(), C2S, now=1.0)
    assert 0.05 <= verdict.delay <= 0.10


def test_spacing_retune():
    filt = SpacingFilter(0.05, noise_fraction=0.0)
    filt.set_spacing(0.08)
    filt.classify(_app_packet(), C2S, now=1.0)
    verdict = filt.classify(_app_packet(), C2S, now=1.0)
    assert verdict.delay == pytest.approx(0.08)


def test_spacing_validation():
    with pytest.raises(ValueError):
        SpacingFilter(-0.1)
    with pytest.raises(ValueError):
        SpacingFilter(0.1, noise_fraction=-1)
    with pytest.raises(ValueError):
        SpacingFilter(0.1).set_spacing(-1)


# -- RandomJitterFilter ------------------------------------------------------------

def test_random_jitter_within_two_means():
    rng = RandomStreams(1)
    filt = RandomJitterFilter(0.05, rng)
    for _ in range(50):
        verdict = filt.classify(_app_packet(), C2S, 1.0)
        assert verdict.action is PacketAction.DELAY
        assert 0.0 <= verdict.delay <= 0.10


def test_random_jitter_zero_mean_forwards():
    filt = RandomJitterFilter(0.0, RandomStreams(1))
    assert filt.classify(_app_packet(), C2S, 1.0).action is PacketAction.FORWARD


def test_random_jitter_set_mean():
    filt = RandomJitterFilter(0.05, RandomStreams(1))
    filt.set_mean(0.0)
    assert filt.classify(_app_packet(), C2S, 1.0).action is PacketAction.FORWARD


# -- TargetedDropFilter --------------------------------------------------------------

def test_drop_filter_inactive_by_default():
    filt = TargetedDropFilter(1.0, RandomStreams(1))
    assert filt.classify(_app_packet(), S2C, 1.0).action is PacketAction.FORWARD


def test_drop_filter_drops_app_data_when_active():
    filt = TargetedDropFilter(1.0, RandomStreams(1))
    filt.activate(now=1.0, duration=5.0)
    assert filt.classify(_app_packet(), S2C, 2.0).action is PacketAction.DROP
    assert filt.dropped == 1


def test_drop_filter_spares_acks_and_handshake():
    filt = TargetedDropFilter(1.0, RandomStreams(1))
    filt.activate(now=0.0, duration=5.0)
    assert filt.classify(_ack_packet(), S2C, 1.0).action is PacketAction.FORWARD
    handshake = _app_packet(150, content_type=HANDSHAKE)
    assert filt.classify(handshake, S2C, 1.0).action is PacketAction.FORWARD


def test_drop_filter_expires():
    filt = TargetedDropFilter(1.0, RandomStreams(1))
    filt.activate(now=0.0, duration=1.0)
    assert filt.classify(_app_packet(), S2C, 2.0).action is PacketAction.FORWARD


def test_drop_filter_never_drops_c2s():
    filt = TargetedDropFilter(1.0, RandomStreams(1))
    filt.activate(now=0.0, duration=5.0)
    assert filt.classify(_app_packet(), C2S, 1.0).action is PacketAction.FORWARD


def test_drop_filter_rate_statistical():
    rng = RandomStreams(3)
    filt = TargetedDropFilter(0.5, rng)
    filt.activate(now=0.0, duration=100.0)
    drops = sum(
        1 for _ in range(400)
        if filt.classify(_app_packet(), S2C, 1.0).action is PacketAction.DROP
    )
    assert 140 < drops < 260


def test_drop_filter_validation():
    with pytest.raises(ValueError):
        TargetedDropFilter(1.5, RandomStreams(1))


# -- GetCounter ----------------------------------------------------------------------

def _feed_preface(counter):
    """The browser's opening flight: preface, SETTINGS, WINDOW_UPDATE."""
    counter.classify(_app_packet(53, seq=0), C2S, 0.0)
    counter.classify(_app_packet(50, seq=53), C2S, 0.0)
    counter.classify(_app_packet(42, seq=103), C2S, 0.0)


def test_get_counter_skips_preface_and_counts():
    counter = GetCounter()
    fired = []
    counter.at(2, lambda now: fired.append(now))
    _feed_preface(counter)
    assert counter.count == 0
    counter.classify(_app_packet(150, seq=145), C2S, 1.0)
    counter.classify(_app_packet(60, seq=295), C2S, 2.0)
    assert counter.count == 2
    assert fired == [2.0]


def test_get_counter_dedupes_retransmissions():
    counter = GetCounter()
    _feed_preface(counter)
    counter.classify(_app_packet(150, seq=145), C2S, 1.0)
    counter.classify(_app_packet(150, seq=145), C2S, 2.0)  # retransmit
    assert counter.count == 1


def test_get_counter_position_validation():
    with pytest.raises(ValueError):
        GetCounter().at(0, lambda now: None)


# -- NetworkController ------------------------------------------------------------------

def test_controller_installs_and_retunes_spacing():
    topology = build_adversary_path(seed=2)
    controller = NetworkController(
        topology.sim, topology.middlebox, RandomStreams(1)
    )
    first = controller.install_spacing(0.05)
    second = controller.install_spacing(0.08)
    assert first is second
    assert second.spacing == 0.08


def test_controller_drop_workflow():
    topology = build_adversary_path(seed=2)
    controller = NetworkController(
        topology.sim, topology.middlebox, RandomStreams(1)
    )
    with pytest.raises(RuntimeError):
        controller.start_drops(1.0)
    controller.install_drops(0.8)
    controller.start_drops(1.0)
    assert controller.drop_filter.active(topology.sim.now)


def test_controller_jitter_install_retune():
    topology = build_adversary_path(seed=2)
    controller = NetworkController(
        topology.sim, topology.middlebox, RandomStreams(1)
    )
    first = controller.install_jitter(0.05)
    second = controller.install_jitter(0.08)
    assert first is second
    assert second.mean_delay == 0.08
