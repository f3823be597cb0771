"""A QUIC-like datagram transport: per-stream loss recovery.

This is the transport the web is migrating to, modelled at the same
level of abstraction as :mod:`repro.tcp`: symbolic datagrams carry
*stream chunks* (ranges of per-stream sequence space referencing a
shared :class:`~repro.transport.stream.StreamLayout`), an on-path
observer sees only sizes/offsets/record boundaries, and the existing
netsim link/fault/middlebox machinery forwards, delays, drops and
duplicates the datagrams unchanged.

What it shares with TCP here: a 1-RTT connection handshake, a
byte-counted congestion window (the same Reno/CUBIC implementations),
an RTT-estimated retransmission timer, and a connection-level flow
control window.  What it deliberately does *not* share — the properties
arXiv:2208.06722 identifies as decisive for the paper's attacks:

* **Independent per-stream loss recovery.**  Each HTTP/2 DATA frame
  rides its own QUIC stream; every other payload (TLS handshake, the
  connection preface, SETTINGS, HEADERS) rides the ordered control
  stream 0 — mirroring how HTTP/3 keeps QPACK's shared encoder state on
  an ordered unidirectional stream.  A lost datagram stalls only the
  streams whose chunks it carried; chunks of other streams keep
  delivering.  There is **no cross-stream head-of-line blocking**, so a
  targeted drop no longer serializes the whole response flight.
* **No duplicate-delivery quirk.**  TCP's ``deliver_duplicate_messages``
  redelivery (the paper's duplicated-GET behaviour) has no QUIC
  analogue: stream data is deduplicated by offset before delivery.

Observer-visible fields are duck-type compatible with
:class:`~repro.tcp.segment.TCPSegment`: ``payload_bytes`` /
``option_bytes`` (packet sizing), ``tls_records`` (records *starting*
in the datagram), ``flags``, ``ack`` and a **monotone connection-level
wire offset** ``seq`` (retransmitted chunks reuse their original
offset), so :func:`repro.core.controller.is_get_like`, the
``GetCounter`` watermark de-duplication and the targeted-drop filter
all work on QUIC traffic without modification.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.netsim.address import Endpoint
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.simkernel.simulator import Simulator
from repro.simkernel.timers import Timer
from repro.simkernel.trace import TraceLog
from repro.tcp.congestion import make_congestion_control
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.rtt import RTOEstimator
from repro.transport import register_transport
from repro.transport.stream import StreamLayout

#: Datagram flag sets (mirrors the TCP flag-frozenset idiom).
FLAGS_INITIAL = frozenset({"INITIAL"})
FLAGS_INITIAL_ACK = frozenset({"INITIAL", "ACK"})
FLAGS_ACK = frozenset({"ACK"})
FLAGS_ONE_RTT = frozenset({"1RTT"})
FLAGS_CLOSE = frozenset({"CLOSE"})
FLAGS_CLOSE_RESET = frozenset({"CLOSE", "RESET"})

_RANGE_START = itemgetter(0)

#: Trace field names, one tuple per row shape; ``_record`` puts
#: ``conn`` in front of them.
_ROLE_KEYS = ("role",)
_KIND_KEYS = ("kind",)
_FAST_RETRANSMIT_KEYS = ("kind", "pn", "length")
_PTO_RETRANSMIT_KEYS = ("kind", "pn", "rto")
_CLOSED_KEYS = ("reset",)
_CONN_KEYS = ("conn",)


@dataclass(frozen=True)
class QuicConfig:
    """Tunables for the datagram transport (defaults mirror TCPConfig)."""

    #: Maximum stream payload bytes per datagram (QUIC's ~1200 B MTU
    #: budget after the short header; deliberately close to TCP's MSS so
    #: per-transport comparisons are not an MTU study).
    max_datagram_payload: int = 1200
    #: Per-datagram overhead beyond the fixed 40 B network allowance —
    #: stands in for UDP header + QUIC short header + frame headers.
    option_bytes: int = 12
    initial_window_datagrams: int = 10
    #: Connection-level flow control credit advertised to the peer.
    receive_window: int = 1 << 20
    min_pto: float = 0.2
    max_pto: float = 60.0
    #: Packet-threshold loss detection (RFC 9002 kPacketThreshold).
    packet_reorder_threshold: int = 3
    #: ACK every n-th ack-eliciting datagram (2 = RFC 9000 default) …
    ack_every: int = 2
    #: … or after this delay, whichever comes first.
    max_ack_delay: float = 0.04
    congestion_control: str = "reno"

    @classmethod
    def adapt(cls, config: Any) -> "QuicConfig":
        """Coerce ``None`` / :class:`QuicConfig` / TCPConfig-likes.

        Harness configs are typed as TCPConfig (``TrialConfig.tcp``);
        when the transport axis selects QUIC the shared knobs — MSS,
        initial window, receive window, timer bounds, congestion
        control — carry over so parameter studies stay comparable.
        """
        if config is None:
            return cls()
        if isinstance(config, cls):
            return config
        return cls(
            max_datagram_payload=int(getattr(config, "mss", 1200)),
            option_bytes=int(getattr(config, "option_bytes", 12)),
            initial_window_datagrams=int(
                getattr(config, "initial_window_segments", 10)
            ),
            receive_window=int(getattr(config, "receive_window", 1 << 20)),
            min_pto=float(getattr(config, "min_rto", 0.2)),
            max_pto=float(getattr(config, "max_rto", 60.0)),
            congestion_control=str(
                getattr(config, "congestion_control", "reno")
            ),
        )


class QuicState(enum.Enum):
    CLOSED = "CLOSED"
    CONNECTING = "CONNECTING"
    ACCEPTING = "ACCEPTING"
    ESTABLISHED = "ESTABLISHED"


class StreamChunk:
    """A contiguous range ``[start, end)`` of one stream's byte space.

    ``layout`` is the sender's per-stream layout (the receiver turns
    delivered ranges back into messages through it); ``global_start``
    is the connection-level wire offset of the range's first byte,
    which is what the on-path observer sees as ``seq``.
    """

    __slots__ = ("stream_id", "start", "end", "layout", "global_start")

    def __init__(
        self,
        stream_id: int,
        start: int,
        end: int,
        layout: StreamLayout,
        global_start: int,
    ) -> None:
        self.stream_id = stream_id
        self.start = start
        self.end = end
        self.layout = layout
        self.global_start = global_start

    @property
    def length(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"StreamChunk(stream={self.stream_id}, "
            f"[{self.start},{self.end}), wire={self.global_start})"
        )


class QuicDatagram:
    """One symbolic datagram (the QUIC analogue of a TCPSegment)."""

    __slots__ = (
        "packet_number",
        "seq",
        "ack",
        "flags",
        "payload_bytes",
        "option_bytes",
        "window",
        "chunks",
        "tls_records",
        "ack_ranges",
        "is_retransmission",
    )

    def __init__(
        self,
        packet_number: int,
        seq: int,
        ack: int,
        flags: frozenset,
        payload_bytes: int,
        option_bytes: int,
        window: int,
        chunks: Tuple[StreamChunk, ...] = (),
        tls_records: Tuple[Any, ...] = (),
        ack_ranges: Tuple[Tuple[int, int], ...] = (),
        is_retransmission: bool = False,
    ) -> None:
        self.packet_number = packet_number
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_bytes = payload_bytes
        self.option_bytes = option_bytes
        self.window = window
        self.chunks = chunks
        self.tls_records = tls_records
        self.ack_ranges = ack_ranges
        self.is_retransmission = is_retransmission

    def __repr__(self) -> str:
        kind = "+".join(sorted(self.flags)) or "1RTT"
        return (
            f"QuicDatagram(pn={self.packet_number}, {kind}, "
            f"seq={self.seq}, payload={self.payload_bytes})"
        )


class _PendingRange:
    """Stream bytes queued for (re)transmission."""

    __slots__ = ("stream_id", "start", "end", "layout", "global_start")

    def __init__(
        self,
        stream_id: int,
        start: int,
        end: int,
        layout: StreamLayout,
        global_start: int,
    ) -> None:
        self.stream_id = stream_id
        self.start = start
        self.end = end
        self.layout = layout
        self.global_start = global_start


class _SentPacket:
    __slots__ = ("chunks", "payload_bytes", "sent_at", "is_retransmission",
                 "acked", "lost")

    def __init__(
        self,
        chunks: Tuple[StreamChunk, ...],
        payload_bytes: int,
        sent_at: float,
        is_retransmission: bool,
    ) -> None:
        self.chunks = chunks
        self.payload_bytes = payload_bytes
        self.sent_at = sent_at
        self.is_retransmission = is_retransmission
        self.acked = False
        self.lost = False


class _TxStream:
    """Sender-side per-stream state: offsets and acked ranges."""

    __slots__ = ("layout", "acked")

    def __init__(self) -> None:
        self.layout = StreamLayout()
        self.acked = ReassemblyBuffer()


class _RxStream:
    """Receiver-side per-stream state: reassembly and delivery frontier."""

    __slots__ = ("layout", "reassembly", "delivered_upto")

    def __init__(self, layout: StreamLayout) -> None:
        self.layout = layout
        self.reassembly = ReassemblyBuffer()
        self.delivered_upto = 0


class QuicConnection:
    """One endpoint of a simulated QUIC-like connection.

    Exposes the :class:`~repro.transport.base.Transport` surface:
    ``connect`` / ``send_message`` / ``close`` / ``reset``, the
    ``on_established`` / ``on_message`` / ``on_close`` / ``on_writable``
    callbacks, a global send-order ``layout`` (ground truth for the
    multiplexing report) and a ``retransmitted_segments`` counter.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_port: int,
        remote: Endpoint,
        config: Any = None,
        trace: Optional[TraceLog] = None,
        owns_port: bool = True,
        name: str = "",
    ) -> None:
        self._sim = sim
        self._host = host
        self.local = host.endpoint(local_port)
        self.remote = remote
        self.config = QuicConfig.adapt(config)
        self._trace = trace
        self.name = name or f"{self.local}->{self.remote}"
        self.state = QuicState.CLOSED

        # Sender state.
        self.layout = StreamLayout()  # global send order (observer truth)
        self._tx_streams: Dict[int, _TxStream] = {}
        self._pending: Deque[_PendingRange] = deque()
        self._retx: Deque[_PendingRange] = deque()
        # Ascending pn; see ``_handle_acks`` for what it holds.
        self._sent: Dict[int, _SentPacket] = {}
        self._next_pn = 0
        self._largest_acked = -1
        # The last ACK handled and ``_next_pn`` when it was.
        self._handled_ack: Tuple[Tuple[int, int], ...] = ()
        self._handled_below = 0
        self._in_flight = 0
        self._acked_bytes = 0
        self._wire_high = 0  # wire offset frontier of fresh sends
        self.cc = make_congestion_control(
            self.config.congestion_control,
            self.config.max_datagram_payload,
            self.config.initial_window_datagrams,
            now=lambda: self._sim.now,
        )
        self.rto = RTOEstimator(self.config.min_pto, self.config.max_pto)
        self.peer_window = self.config.receive_window
        self._pto_timer = Timer(sim, self._on_pto, name=f"{self.name}.pto")
        self.retransmitted_segments = 0
        self._initial_time = 0.0
        self._close_requested = False

        # Receiver state.
        self._pn_buffer = ReassemblyBuffer()
        self._largest_pn_seen = -1
        self._rx_streams: Dict[int, _RxStream] = {}
        self._eliciting_since_ack = 0
        self._ack_timer = Timer(sim, self._send_ack_now, name=f"{self.name}.ack")

        # Callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_message: Optional[Callable[[Any, bool], None]] = None
        self.on_close: Optional[Callable[[bool], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None

        self._owns_port = owns_port
        if owns_port:
            host.bind(local_port, self.handle_packet)

    # ------------------------------------------------------------------
    # Public API (Transport protocol)
    # ------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def is_closed(self) -> bool:
        return self.state is QuicState.CLOSED

    @property
    def bytes_in_flight(self) -> int:
        return self._in_flight

    @property
    def unacked_buffered_bytes(self) -> int:
        """Queued-but-unacknowledged stream bytes (send-buffer occupancy)."""
        return self.layout.next_seq - self._acked_bytes

    @property
    def send_window(self) -> int:
        """Usable window: min(cwnd, peer connection flow credit)."""
        return min(self.cc.cwnd, self.peer_window)

    def connect(self) -> None:
        """Client side: send the INITIAL and await the handshake reply."""
        if self.state is not QuicState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = QuicState.CONNECTING
        self._initial_time = self._sim.now
        self._emit_control(FLAGS_INITIAL)
        self._pto_timer.start(self.rto.rto)
        self._record("quic.initial_sent")

    def accept_initial(self) -> None:
        """Server side: answer a client INITIAL (listener-invoked)."""
        if self.state is not QuicState.CLOSED:
            return
        self.state = QuicState.ACCEPTING
        # The client's INITIAL is always its packet number 0; register
        # it so packet-number continuity holds from the first datagram.
        self._pn_buffer.receive(0, 1)
        self._largest_pn_seen = 0
        self._emit_control(FLAGS_INITIAL_ACK)
        self._pto_timer.start(self.rto.rto)

    def send_message(self, message: Any, length: Optional[int] = None) -> None:
        """Queue one application message on its stream.

        HTTP/2 DATA frames map to the QUIC stream of their HTTP/2
        stream id; every other payload maps to the ordered control
        stream 0 (see the module docstring).
        """
        span = self.layout.append(message, length)
        stream_id = self._classify_stream(message)
        tx = self._tx_streams.get(stream_id)
        if tx is None:
            tx = self._tx_streams[stream_id] = _TxStream()
        stream_span = tx.layout.append(message, span.length)
        self._pending.append(
            _PendingRange(
                stream_id,
                stream_span.start,
                stream_span.end,
                tx.layout,
                span.start,
            )
        )
        self._try_send()

    def close(self) -> None:
        """Orderly close: flush and acknowledge, then CONNECTION_CLOSE."""
        if self.state is QuicState.CLOSED:
            return
        self._close_requested = True
        self._maybe_send_close()

    def reset(self) -> None:
        """Abortive close (the RST analogue)."""
        if self.state is QuicState.CLOSED:
            return
        self._emit_control(FLAGS_CLOSE_RESET)
        self._teardown(reset=True)

    # ------------------------------------------------------------------
    # Stream classification
    # ------------------------------------------------------------------

    @staticmethod
    def _classify_stream(message: Any) -> int:
        """Map a message to its QUIC stream (duck-typed, no h2 import).

        An HTTP/2 DATA frame (or a TLS fragment of one) is recognised by
        its ``data_bytes`` attribute and rides the stream matching its
        ``stream_id``; everything else is ordered control traffic.
        """
        payload = getattr(message, "payload", None)
        payload = getattr(payload, "original", payload)
        if hasattr(payload, "data_bytes"):
            return int(getattr(payload, "stream_id", 0))
        return 0

    # ------------------------------------------------------------------
    # Datagram handling
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Entry point for datagrams addressed to this connection."""
        datagram = packet.segment
        if not isinstance(datagram, QuicDatagram):
            return
        if "CLOSE" in datagram.flags:
            self._record("quic.close_received")
            self._teardown(reset="RESET" in datagram.flags)
            return

        if self.state is QuicState.CONNECTING:
            if datagram.flags >= FLAGS_INITIAL_ACK:
                self._pto_timer.cancel()
                if self.rto.backoff == 1:
                    # Karn: only sample when the INITIAL was not resent.
                    self.rto.on_sample(self._sim.now - self._initial_time)
                pn = datagram.packet_number
                self._pn_buffer.receive(pn, pn + 1)
                self._largest_pn_seen = max(self._largest_pn_seen, pn)
                self.state = QuicState.ESTABLISHED
                self._send_ack_now()
                self._record("quic.established", _ROLE_KEYS, ("client",))
                if self.on_established:
                    self.on_established()
                self._try_send()
            return

        if self.state is QuicState.ACCEPTING:
            if "INITIAL" in datagram.flags:
                # Duplicate INITIAL: re-answer.
                self._emit_control(FLAGS_INITIAL_ACK)
                return
            self._pto_timer.cancel()
            self.state = QuicState.ESTABLISHED
            self._record("quic.established", _ROLE_KEYS, ("server",))
            if self.on_established:
                self.on_established()
            # Fall through: the datagram may carry acks and data.

        if self.state is QuicState.CLOSED:
            return

        pn = datagram.packet_number
        _, duplicate_pn = self._pn_buffer.receive(pn, pn + 1)
        # Arrival continuity (not buffer holes) drives the immediate-ack
        # rule: a datagram lost forever leaves a permanent range hole,
        # which must not force ack-per-packet for the whole connection.
        out_of_order = pn != self._largest_pn_seen + 1
        self._largest_pn_seen = max(self._largest_pn_seen, pn)
        self.peer_window = datagram.window

        if datagram.ack_ranges:
            self._handle_acks(datagram.ack_ranges)
        if datagram.chunks and not duplicate_pn:
            self._handle_data(datagram)

        if datagram.payload_bytes > 0 or "INITIAL" in datagram.flags:
            # Ack-eliciting: immediate ack on loss/reorder signals
            # (fast loss feedback for the peer), delayed otherwise.
            if duplicate_pn or out_of_order:
                self._send_ack_now()
            else:
                self._eliciting_since_ack += 1
                if self._eliciting_since_ack >= self.config.ack_every:
                    self._send_ack_now()
                elif not self._ack_timer.armed:
                    self._ack_timer.start(self.config.max_ack_delay)

    # -- acknowledgements --------------------------------------------------

    def _handle_acks(self, ack_ranges: Tuple[Tuple[int, int], ...]) -> None:
        """Resolve the sent packets that ``ack_ranges`` acknowledges.

        ``_sent`` follows insertion order, so its packet numbers ascend.
        Between calls it holds every unresolved packet, preceded by the
        packets the last PTOs declared lost: those stay until the next
        ACK that acknowledges something, so they can still be acked (and
        count their payload, their stream bytes and their RTT sample)
        before it purges them.

        ``ack_ranges`` is sorted and disjoint (see ``_ack_ranges``).  One
        bisection finds the range that can hold the oldest packet; the
        walk then advances through ``_sent`` and the ranges together and
        stops at the first packet past the last range.  An ACK whose
        ranges all end at or below the oldest packet costs no walk.

        An ACK equal to the last one handled, and covering only packets
        sent before that one was, acknowledges nothing: the first one
        resolved every packet they cover.  Most ACKs that acknowledge
        nothing are such repeats (the peer acks each data packet while
        the requests an on-path adversary holds sit in the holes), so
        they return before the walk visits the held records.
        """
        sent = self._sent
        if not sent or not ack_ranges:
            return
        last_end = ack_ranges[-1][1]
        if ack_ranges == self._handled_ack and last_end <= self._handled_below:
            return
        self._handled_ack = ack_ranges
        self._handled_below = self._next_pn
        oldest = next(iter(sent))
        if oldest >= last_end:
            return
        index = max(bisect_right(ack_ranges, oldest, key=_RANGE_START) - 1, 0)
        range_start, range_end = ack_ranges[index]
        newly_acked: List[int] = []
        for pn in sent:
            if pn >= last_end:
                break
            while pn >= range_end:
                index += 1
                range_start, range_end = ack_ranges[index]
            if pn >= range_start:
                newly_acked.append(pn)
        if not newly_acked:
            return

        acked_payload = 0
        acked_stream_bytes = 0
        largest = self._largest_acked
        sample: Optional[float] = None
        tx_streams = self._tx_streams
        for pn in newly_acked:
            record = sent.pop(pn)
            record.acked = True
            if not record.lost:
                self._in_flight -= record.payload_bytes
            acked_payload += record.payload_bytes
            for chunk in record.chunks:
                acked_stream_bytes += tx_streams[chunk.stream_id].acked.merge(
                    chunk.start, chunk.end
                )
            if pn > largest:
                largest = pn
                sample = (
                    self._sim.now - record.sent_at
                    if not record.is_retransmission
                    else None
                )
        # Purge the PTO-declared losses this ACK did not acknowledge.
        stale: List[int] = []
        for pn, record in sent.items():
            if not record.lost:
                break
            stale.append(pn)
        for pn in stale:
            del sent[pn]
        self._largest_acked = largest
        self._acked_bytes += acked_stream_bytes

        if sample is not None:
            self.rto.on_sample(sample)
        else:
            self.rto.reset_backoff()
        self.cc.on_ack_progress(acked_payload, self._acked_bytes)
        self._detect_losses()

        if self._in_flight > 0:
            self._pto_timer.start(self.rto.rto)
        else:
            self._pto_timer.cancel()
        self._try_send()
        if acked_stream_bytes > 0 and self.on_writable:
            self.on_writable()
        self._maybe_send_close()

    def _detect_losses(self) -> None:
        """Packet-threshold loss detection (RFC 9002 §6.1.1).

        Runs right after ``_handle_acks`` resolved its packets, when
        ``_sent`` holds only unresolved packets in ascending order: the
        walk declares lost every packet up to the threshold, stops at
        the first one above it, and removes the lost ones from ``_sent``.
        """
        threshold = self._largest_acked - self.config.packet_reorder_threshold
        sent = self._sent
        lost: List[int] = []
        for pn in sent:
            if pn > threshold:
                break
            lost.append(pn)
        if not lost:
            return
        first = sent[lost[0]]
        for pn in lost:
            record = sent.pop(pn)
            record.lost = True
            self._in_flight -= record.payload_bytes
            self._requeue(record)
        if not self.cc.in_recovery:
            self.cc.on_fast_retransmit(
                max(self._in_flight, 0), self._acked_bytes + self._in_flight
            )
        self._record(
            "quic.retransmit",
            _FAST_RETRANSMIT_KEYS,
            ("fast", lost[0], first.payload_bytes),
        )

    def _requeue(self, record: _SentPacket) -> None:
        """Queue a lost packet's not-yet-acked chunks for retransmission."""
        for chunk in record.chunks:
            tx = self._tx_streams[chunk.stream_id]
            # A partially acked chunk is resent whole: the receiver
            # deduplicates by offset, so that costs only wire bytes.
            if tx.acked.covers(chunk.start, chunk.end):
                continue  # every byte already acked via another packet
            self._retx.append(
                _PendingRange(
                    chunk.stream_id,
                    chunk.start,
                    chunk.end,
                    chunk.layout,
                    chunk.global_start,
                )
            )

    # -- receiving ---------------------------------------------------------

    def _handle_data(self, datagram: QuicDatagram) -> None:
        for chunk in datagram.chunks:
            rx = self._rx_streams.get(chunk.stream_id)
            if rx is None:
                rx = _RxStream(chunk.layout)
                self._rx_streams[chunk.stream_id] = rx
            old = rx.reassembly.rcv_nxt
            new, _ = rx.reassembly.receive(chunk.start, chunk.end)
            if new <= old:
                continue
            # Per-stream in-order delivery: no quirk, never duplicates.
            for span in rx.layout.spans_completed_in(rx.delivered_upto, new):
                if span.end <= rx.delivered_upto:
                    continue  # a reentrant delivery already covered it
                rx.delivered_upto = span.end
                if self.on_message:
                    self.on_message(span.message, False)

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self.state is not QuicState.ESTABLISHED:
            return
        limit = self.send_window
        while (self._retx or self._pending) and self._in_flight < limit:
            budget = min(
                self.config.max_datagram_payload, limit - self._in_flight
            )
            if budget <= 0:
                break
            if self._retx:
                self._send_retransmission(budget)
            else:
                self._send_fresh(budget)
        if self._in_flight > 0 and not self._pto_timer.armed:
            self._pto_timer.start(self.rto.rto)
        self._maybe_send_close()

    def _send_retransmission(self, budget: int) -> None:
        entry = self._retx.popleft()
        length = min(entry.end - entry.start, budget)
        chunk = StreamChunk(
            entry.stream_id,
            entry.start,
            entry.start + length,
            entry.layout,
            entry.global_start,
        )
        if length < entry.end - entry.start:
            entry.start += length
            entry.global_start += length
            self._retx.appendleft(entry)
        self.retransmitted_segments += 1
        self._send_datagram((chunk,), length, chunk.global_start, True)

    def _send_fresh(self, budget: int) -> None:
        first = self._pending[0]
        seq = first.global_start
        chunks: List[StreamChunk] = []
        total = 0
        # Fresh entries queue in global send order, so consecutive
        # entries are wire-contiguous and one datagram covers the global
        # range [seq, seq + total).
        while self._pending and total < budget:
            entry = self._pending[0]
            take = min(entry.end - entry.start, budget - total)
            chunks.append(
                StreamChunk(
                    entry.stream_id,
                    entry.start,
                    entry.start + take,
                    entry.layout,
                    entry.global_start,
                )
            )
            total += take
            if take == entry.end - entry.start:
                self._pending.popleft()
            else:
                entry.start += take
                entry.global_start += take
        self._wire_high = max(self._wire_high, seq + total)
        self._send_datagram(tuple(chunks), total, seq, False)

    def _send_datagram(
        self,
        chunks: Tuple[StreamChunk, ...],
        payload: int,
        seq: int,
        is_retransmission: bool,
    ) -> None:
        spans = self.layout.spans_starting_in(seq, seq + payload)
        config = self.config
        # Positional: a keyword call costs more than the constructor.
        datagram = QuicDatagram(
            self._next_pn,
            seq,
            self._pn_buffer.rcv_nxt,  # ack
            FLAGS_ONE_RTT,
            payload,
            config.option_bytes,
            config.receive_window,
            chunks,
            tuple([span.message for span in spans]),  # tls_records
            self._ack_ranges(),
            is_retransmission,
        )
        self._sent[self._next_pn] = _SentPacket(
            chunks, payload, self._sim.now, is_retransmission
        )
        self._next_pn += 1
        self._in_flight += payload
        # Data datagrams piggyback the current ack state.
        self._eliciting_since_ack = 0
        self._ack_timer.cancel()
        self._transmit(datagram)

    def _on_pto(self) -> None:
        if self.state is QuicState.CONNECTING:
            self.rto.on_timeout()
            self._emit_control(FLAGS_INITIAL)
            self._pto_timer.start(self.rto.rto)
            self._record("quic.retransmit", _KIND_KEYS, ("handshake",))
            return
        if self.state is QuicState.ACCEPTING:
            self.rto.on_timeout()
            self._emit_control(FLAGS_INITIAL_ACK)
            self._pto_timer.start(self.rto.rto)
            self._record("quic.retransmit", _KIND_KEYS, ("handshake",))
            return
        # Lost records stay in ``_sent`` until the next productive ACK
        # (see ``_handle_acks``); they lead it, in ascending order.
        outstanding = [
            (pn, record)
            for pn, record in self._sent.items()
            if not record.lost
        ]
        if not outstanding:
            return
        self.cc.on_timeout(self._in_flight)
        self.rto.on_timeout()
        self._record(
            "quic.retransmit",
            _PTO_RETRANSMIT_KEYS,
            ("pto", outstanding[0][0], self.rto.rto),
        )
        for _, record in outstanding:
            record.lost = True
            self._in_flight -= record.payload_bytes
            self._requeue(record)
        self._pto_timer.start(self.rto.rto)
        self._try_send()

    # ------------------------------------------------------------------
    # Close handling
    # ------------------------------------------------------------------

    def _maybe_send_close(self) -> None:
        if (
            self._close_requested
            and self.state is QuicState.ESTABLISHED
            and not self._pending
            and not self._retx
            and self._in_flight == 0
            and self._acked_bytes >= self.layout.next_seq
        ):
            self._emit_control(FLAGS_CLOSE)
            self._teardown(reset=False)

    def _teardown(self, reset: bool) -> None:
        if self.state is QuicState.CLOSED:
            return
        self.state = QuicState.CLOSED
        self._pto_timer.cancel()
        self._ack_timer.cancel()
        if self._owns_port:
            self._host.unbind(self.local.port)
        self._record("quic.closed", _CLOSED_KEYS, (reset,))
        if self.on_close:
            self.on_close(reset)

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _ack_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Received packet numbers, sorted and strictly disjoint.

        The cumulative range ``[0, rcv_nxt)`` comes first, then the
        buffer's ascending out-of-order ranges, which all start above
        ``rcv_nxt``; the peer's ``_handle_acks`` walks this order.
        """
        return self._pn_buffer.received_ranges()

    def _send_ack_now(self) -> None:
        self._ack_timer.cancel()
        self._eliciting_since_ack = 0
        self._emit_control(FLAGS_ACK)

    def _emit_control(self, flags: frozenset) -> None:
        config = self.config
        datagram = QuicDatagram(
            self._next_pn,
            self._wire_high,  # seq
            self._pn_buffer.rcv_nxt,  # ack
            flags,
            0,  # payload_bytes
            config.option_bytes,
            config.receive_window,
            (),  # chunks
            (),  # tls_records
            self._ack_ranges(),
        )
        self._next_pn += 1
        self._transmit(datagram)

    def _transmit(self, datagram: QuicDatagram) -> None:
        packet = Packet(self.local, self.remote, datagram)
        self._host.send(packet)

    def _record(self, category: str, keys: tuple = (), values: tuple = ()) -> None:
        if self._trace is not None:
            self._trace.record(
                self._sim.now, category, _CONN_KEYS + keys, (self.name,) + values
            )

    def __repr__(self) -> str:
        return (
            f"QuicConnection({self.name!r}, {self.state.value}, "
            f"acked={self._acked_bytes}, queued={self.layout.next_seq}, "
            f"cwnd={self.cc.cwnd})"
        )


class QuicListener:
    """Accepts inbound QUIC-like connections on one port.

    Mirrors :class:`~repro.tcp.listener.TCPListener`: ``on_accept`` runs
    *before* the INITIAL is answered so callers can install callbacks.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        port: int,
        on_accept: Callable[[QuicConnection], None],
        config: Any = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._sim = sim
        self._host = host
        self._port = port
        self._on_accept = on_accept
        self._config = QuicConfig.adapt(config)
        self._trace = trace
        self._connections: Dict[Endpoint, QuicConnection] = {}
        host.bind(port, self._dispatch)

    @property
    def port(self) -> int:
        return self._port

    @property
    def connections(self) -> Dict[Endpoint, QuicConnection]:
        """Live view of accepted connections, keyed by peer endpoint."""
        return self._connections

    def close(self) -> None:
        """Stop listening; existing connections keep running."""
        self._host.unbind(self._port)

    def _dispatch(self, packet: Packet) -> None:
        peer = packet.src
        connection = self._connections.get(peer)
        if connection is None:
            datagram = packet.segment
            if not isinstance(datagram, QuicDatagram) or "INITIAL" not in datagram.flags:
                return  # Stray non-INITIAL for an unknown peer: ignore.
            connection = QuicConnection(
                sim=self._sim,
                host=self._host,
                local_port=self._port,
                remote=peer,
                config=self._config,
                trace=self._trace,
                owns_port=False,
                name=f"server:{peer}",
            )
            self._connections[peer] = connection
            self._on_accept(connection)
            connection.accept_initial()
            return
        connection.handle_packet(packet)

    def __repr__(self) -> str:
        return f"QuicListener(port={self._port}, peers={len(self._connections)})"


class QUICFactory:
    """Factory for the QUIC-like datagram transport."""

    name = "quic"

    def create_connection(
        self,
        sim: Simulator,
        host: Host,
        local_port: int,
        remote: Endpoint,
        config: Any = None,
        trace: Optional[TraceLog] = None,
        name: str = "",
    ) -> QuicConnection:
        return QuicConnection(
            sim,
            host,
            local_port,
            remote,
            config=config,
            trace=trace,
            name=name,
        )

    def create_listener(
        self,
        sim: Simulator,
        host: Host,
        port: int,
        on_accept: Callable[[QuicConnection], None],
        config: Any = None,
        trace: Optional[TraceLog] = None,
    ) -> QuicListener:
        return QuicListener(sim, host, port, on_accept, config=config, trace=trace)

    def server_config(self, config: Any, serve_duplicates: bool) -> QuicConfig:
        # QUIC has no wire-level redelivery quirk: ``serve_duplicates``
        # only matters for transports that can surface duplicates.
        return QuicConfig.adapt(config)


register_transport(QUICFactory())
