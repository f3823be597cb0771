"""The network controller: the adversary's actuators (paper §IV).

Implements, as middlebox packet filters, each of the four network
manipulations the paper studies:

* :class:`UniformDelayFilter` — §IV-A's negative result: a constant
  delay on every packet cannot change inter-arrival times.
* :class:`SpacingFilter` — §IV-B's calculated jitter: hold GET
  requests so consecutive ones reach the server at least ``spacing``
  apart ("first request delayed 0 ms, second d ms, third 2d ms, …").
* :class:`RandomJitterFilter` — netem-style random per-packet jitter,
  for ablations.
* bandwidth throttling — via the middlebox token bucket (§IV-C).
* :class:`TargetedDropFilter` — §IV-D: drop a fraction of server→client
  application packets during an activation window to force the client
  into an HTTP/2 stream reset.

:class:`GetCounter` is the live counterpart of the traffic monitor: it
counts GET-like packets in flight so the attack can trigger phases
"as soon as the client sent the 6th GET request".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.capture import Direction
from repro.netsim.middlebox import Middlebox, PacketFilter, Verdict
from repro.netsim.packet import Packet
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog

#: Same GET heuristic the offline monitor uses (see repro.core.monitor):
#: a repeat GET with a hot HPACK table is ≈46 B of TCP payload, while
#: the largest HTTP/2 control record (WINDOW_UPDATE) is 42 B.
GET_PAYLOAD_THRESHOLD = 44

#: Cumulative client→server application bytes to ignore before GET
#: detection starts: the connection preface record plus the client
#: SETTINGS (≈103 B of TCP payload) form a fixed, fingerprint-able
#: browser signature that precedes every request.
PREFACE_FLIGHT_BYTES = 120

#: Trace field names, one tuple per row shape.
_JITTER_KEYS = ("mean",)
_SPACING_KEYS = ("spacing",)
_BANDWIDTH_KEYS = ("rate",)
_DROPS_ON_KEYS = ("duration", "rate")


def is_get_like(packet: Packet, threshold: int = GET_PAYLOAD_THRESHOLD) -> bool:
    """Live GET detection from on-path-visible fields only."""
    segment = packet.segment
    if segment is None or packet.payload_bytes < threshold:
        return False
    records = getattr(segment, "tls_records", ()) or ()
    return any(getattr(record, "content_type", 0) == 23 for record in records)


class UniformDelayFilter:
    """Delay every packet in a direction by a constant (§IV-A).

    The paper's point: this shifts all arrivals equally, so the
    inter-arrival times at the server are unchanged and multiplexing is
    unaffected.  Kept for the delay-ablation experiment.
    """

    def __init__(self, delay: float, direction: Optional[Direction] = None) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.direction = direction
        self.enabled = True

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        if not self.enabled or (
            self.direction is not None and direction is not self.direction
        ):
            return Verdict.forward()
        return Verdict.delayed(self.delay)


class SpacingFilter:
    """Enforce a minimum inter-arrival spacing between GET requests.

    The paper's "calculated jitter" (§IV-B): the first request of a
    burst is delayed 0 ms, the second ``d`` ms, the third ``2d`` ms,
    and so on, so consecutive GETs reach the server at least
    ``spacing`` apart.  Requests already spaced naturally pass
    untouched.  Retransmitted requests match the same heuristic and are
    spaced too — the escalation the paper observes.

    ``noise_fraction`` models the actuator's imprecision (the gateway
    implements holds with tc/netem whose delay realization is not
    exact): each hold gets an extra uniform error of up to that
    fraction of the hold itself.  Long holds deep inside a request
    burst therefore wobble by tens of milliseconds — enough to reorder
    requests past each other and, at larger spacings, to hold a request
    beyond the client's RTO floor.  This is the source of the
    dup-ACK → fast-retransmit → duplicate-serving cascade of §IV-B;
    set it to 0 for a perfect actuator (the ablation study).
    """

    def __init__(
        self,
        spacing: float,
        threshold: int = GET_PAYLOAD_THRESHOLD,
        noise_fraction: float = 0.5,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        if spacing < 0:
            raise ValueError("spacing must be non-negative")
        if noise_fraction < 0:
            raise ValueError("noise fraction must be non-negative")
        self.spacing = spacing
        self.threshold = threshold
        self.noise_fraction = noise_fraction
        self._rng = rng
        self.enabled = True
        self._last_release: Optional[float] = None
        self.delays_applied = 0
        self.total_delay = 0.0

    def set_spacing(self, spacing: float) -> None:
        """Retune mid-attack (phase 3 raises 50 ms → 80 ms)."""
        if spacing < 0:
            raise ValueError("spacing must be non-negative")
        self.spacing = spacing

    def _noise(self, delay: float) -> float:
        if self.noise_fraction == 0 or self._rng is None or delay <= 0:
            return 0.0
        return self._rng.uniform(
            "adversary.spacing_noise", 0.0, self.noise_fraction * delay
        )

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        if (
            not self.enabled
            or direction is not Direction.CLIENT_TO_SERVER
            or not is_get_like(packet, self.threshold)
        ):
            return Verdict.forward()
        if self._last_release is None or self.spacing == 0:
            self._last_release = now
            return Verdict.forward()
        release = max(now, self._last_release + self.spacing)
        self._last_release = release
        delay = release - now
        if delay <= 0:
            return Verdict.forward()
        delay += self._noise(delay)
        self.delays_applied += 1
        self.total_delay += delay
        return Verdict.delayed(delay)


class RandomJitterFilter:
    """netem-style jitter: uniform random delay in [0, 2·mean] per packet.

    This is what the paper's ``tc netem``-based network controller
    actually does, and its side effect is the attack's second-order
    story: independently delayed request packets **reorder**, the server
    dup-ACKs the resulting holes, the client fast-retransmits GETs it
    never lost, and the duplicate-serving quirk multiplies responses
    (§IV-B's "intensified multiplexing").

    The filter applies to every packet in its direction (like a netem
    qdisc); "increase in delay per request" in Table I is the mean.
    """

    def __init__(
        self,
        mean_delay: float,
        rng: RandomStreams,
        direction: Optional[Direction] = Direction.CLIENT_TO_SERVER,
        stream_name: str = "adversary.jitter",
    ) -> None:
        if mean_delay < 0:
            raise ValueError("jitter must be non-negative")
        self.mean_delay = mean_delay
        self.direction = direction
        self._rng = rng
        self._stream_name = stream_name
        self.enabled = True

    def set_mean(self, mean_delay: float) -> None:
        """Retune mid-attack (the §V escalation to 80 ms)."""
        if mean_delay < 0:
            raise ValueError("jitter must be non-negative")
        self.mean_delay = mean_delay

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        if not self.enabled or (
            self.direction is not None and direction is not self.direction
        ):
            return Verdict.forward()
        if self.mean_delay == 0:
            return Verdict.forward()
        return Verdict.delayed(
            self._rng.uniform(self._stream_name, 0.0, 2.0 * self.mean_delay)
        )


class TargetedDropFilter:
    """Drop a fraction of server→client application packets (§IV-D).

    Inactive until :meth:`activate`; deactivates itself after the
    configured window.  Only TLS application-data packets are dropped
    ("drops 80% application packets"); handshakes and pure ACKs pass.
    """

    def __init__(
        self,
        drop_rate: float,
        rng: RandomStreams,
        stream_name: str = "adversary.drops",
    ) -> None:
        if not (0.0 <= drop_rate <= 1.0):
            raise ValueError("drop rate must be in [0, 1]")
        self.drop_rate = drop_rate
        self._rng = rng
        self._stream_name = stream_name
        self._active_until: Optional[float] = None
        self.dropped = 0

    def activate(self, now: float, duration: float) -> None:
        """Start dropping for ``duration`` seconds."""
        self._active_until = now + duration

    def deactivate(self) -> None:
        self._active_until = None

    def active(self, now: float) -> bool:
        return self._active_until is not None and now <= self._active_until

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        if direction is not Direction.SERVER_TO_CLIENT or not self.active(now):
            return Verdict.forward()
        segment = packet.segment
        records = getattr(segment, "tls_records", ()) if segment else ()
        if not any(getattr(r, "content_type", 0) == 23 for r in records or ()):
            return Verdict.forward()
        if self._rng.stream(self._stream_name).random() < self.drop_rate:
            self.dropped += 1
            return Verdict.drop()
        return Verdict.forward()


class GetCounter:
    """Counts GET-like packets in flight and fires positional triggers.

    TCP retransmissions are excluded by tracking the highest sequence
    number counted so far — retransmitted requests carry old sequence
    numbers, which an on-path observer sees in the clear (tshark does
    the same de-duplication).
    """

    def __init__(self, threshold: int = GET_PAYLOAD_THRESHOLD) -> None:
        self.threshold = threshold
        self.count = 0
        self._max_end_seq = -1
        self._preface_seen = 0
        self._triggers: Dict[int, List[Callable[[float], None]]] = {}
        #: Invoked as ``on_get(count, now, payload_bytes)`` for every new
        #: (non-retransmitted) GET — the hook classifier triggers use.
        self.on_get: Optional[Callable[[int, float, int], None]] = None

    def at(self, n: int, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(now)`` when the n-th GET (1-based) passes."""
        if n < 1:
            raise ValueError("GET positions are 1-based")
        self._triggers.setdefault(n, []).append(callback)

    def classify(self, packet: Packet, direction: Direction, now: float) -> Verdict:
        if direction is not Direction.CLIENT_TO_SERVER:
            return Verdict.forward()
        segment = packet.segment
        records = getattr(segment, "tls_records", ()) if segment else ()
        is_app = any(getattr(r, "content_type", 0) == 23 for r in records or ())
        if not is_app:
            return Verdict.forward()
        preface_before = self._preface_seen
        self._preface_seen += packet.payload_bytes
        if preface_before < PREFACE_FLIGHT_BYTES:
            return Verdict.forward()
        if packet.payload_bytes < self.threshold:
            return Verdict.forward()
        seq = int(getattr(segment, "seq", 0))
        end = seq + packet.payload_bytes
        if self._max_end_seq < 0 or seq >= self._max_end_seq:
            self.count += 1
            self._max_end_seq = end
            if self.on_get is not None:
                self.on_get(self.count, now, packet.payload_bytes)
            for callback in self._triggers.get(self.count, ()):
                callback(now)
        elif end > self._max_end_seq:
            # Partial overlap (coalesced retransmission carrying some
            # new data): advance the watermark without counting.
            self._max_end_seq = end
        return Verdict.forward()


class NetworkController:
    """Facade bundling the filters on one middlebox.

    The attack state machine drives this; experiments can also use it
    directly for single-parameter studies (Tables I, Figure 5).
    """

    def __init__(
        self,
        sim: Simulator,
        middlebox: Middlebox,
        rng: RandomStreams,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.middlebox = middlebox
        self.rng = rng
        self._trace = trace
        self.get_counter = GetCounter()
        self.spacing_filter: Optional[SpacingFilter] = None
        self.jitter_filter: Optional[RandomJitterFilter] = None
        self.drop_filter: Optional[TargetedDropFilter] = None
        middlebox.add_filter(Direction.CLIENT_TO_SERVER, self.get_counter)

    def install_jitter(self, mean_delay: float) -> RandomJitterFilter:
        """Install (or retune) netem-style client→server jitter — the
        paper's actual jitter mechanism."""
        if self.jitter_filter is None:
            self.jitter_filter = RandomJitterFilter(
                mean_delay, self.rng, Direction.CLIENT_TO_SERVER
            )
            self.middlebox.add_filter(
                Direction.CLIENT_TO_SERVER, self.jitter_filter
            )
        else:
            self.jitter_filter.set_mean(mean_delay)
        self._record("adversary.jitter", _JITTER_KEYS, (mean_delay,))
        return self.jitter_filter

    def install_spacing(
        self, spacing: float, noise_fraction: float = 0.5
    ) -> SpacingFilter:
        """Install (or retune) the calculated GET-spacing filter.

        ``noise_fraction=0`` gives a perfect actuator (ablation); the
        default models the tc/netem imprecision of the paper's gateway.
        """
        if self.spacing_filter is None:
            self.spacing_filter = SpacingFilter(
                spacing, noise_fraction=noise_fraction, rng=self.rng
            )
            self.middlebox.add_filter(
                Direction.CLIENT_TO_SERVER, self.spacing_filter
            )
        else:
            self.spacing_filter.set_spacing(spacing)
        self._record("adversary.spacing", _SPACING_KEYS, (spacing,))
        return self.spacing_filter

    def limit_bandwidth(self, bits_per_second: Optional[float],
                        burst_bytes: int = 32 * 1024) -> None:
        """Throttle both directions (None lifts the limit)."""
        self.middlebox.set_bandwidth_limit(bits_per_second, burst_bytes)
        self._record("adversary.bandwidth", _BANDWIDTH_KEYS, (bits_per_second,))

    def install_drops(self, drop_rate: float) -> TargetedDropFilter:
        """Install the targeted s→c drop filter (inactive)."""
        if self.drop_filter is None:
            self.drop_filter = TargetedDropFilter(drop_rate, self.rng)
            self.middlebox.add_filter(
                Direction.SERVER_TO_CLIENT, self.drop_filter
            )
        else:
            self.drop_filter.drop_rate = drop_rate
        return self.drop_filter

    def start_drops(self, duration: float) -> None:
        """Activate the drop filter for ``duration`` seconds."""
        if self.drop_filter is None:
            raise RuntimeError("install_drops() first")
        self.drop_filter.activate(self.sim.now, duration)
        self._record(
            "adversary.drops_on",
            _DROPS_ON_KEYS,
            (duration, self.drop_filter.drop_rate),
        )

    def install_uniform_delay(
        self, delay: float, direction: Optional[Direction] = None
    ) -> UniformDelayFilter:
        """Constant per-packet delay (the §IV-A negative result)."""
        delay_filter = UniformDelayFilter(delay, direction)
        if direction is None:
            for current in Direction:
                self.middlebox.add_filter(current, delay_filter)
        else:
            self.middlebox.add_filter(direction, delay_filter)
        return delay_filter

    def on_nth_get(self, n: int, callback: Callable[[float], None]) -> None:
        """Register a live trigger on the n-th forwarded GET."""
        self.get_counter.at(n, callback)

    def _record(self, category: str, keys: tuple, values: tuple) -> None:
        if self._trace is not None:
            self._trace.record(self.sim.now, category, keys, values)
