"""The TCP connection: state machine, sender and receiver.

One :class:`TCPConnection` object is one endpoint of a connection.  The
client side creates its own ephemeral-port binding and initiates the
three-way handshake; server-side connections are created by a
:class:`~repro.tcp.listener.TCPListener` when a SYN arrives.

Simplifications relative to RFC 793/5681, all documented here:

* SYN and FIN do not consume sequence numbers; control segments are
  distinguished purely by flags and data sequence space starts at 0.
* The advertised receive window is constant (window scaling implied).
* No SACK; loss recovery is Reno fast-retransmit plus RTO.

Everything the paper's attack leans on — duplicate ACKs, fast
retransmit, RTO with exponential backoff, cwnd collapse, and the
duplicate-request delivery quirk — is implemented faithfully.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.netsim.address import Endpoint
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.simkernel.simulator import Simulator
from repro.simkernel.timers import Timer
from repro.simkernel.trace import TraceLog
from repro.tcp.config import TCPConfig
from repro.tcp.congestion import make_congestion_control
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.rtt import RTOEstimator
from repro.tcp.segment import (
    ACK,
    FIN,
    FLAGS_ACK,
    FLAGS_FIN_ACK,
    FLAGS_RST_ACK,
    FLAGS_SYN,
    FLAGS_SYN_ACK,
    RST,
    SYN,
    TCPSegment,
    flag_set,
)
from repro.transport.stream import StreamLayout

#: Trace field names, one tuple per row shape; ``_record`` puts
#: ``conn`` in front of them.
_ROLE_KEYS = ("role",)
_KIND_KEYS = ("kind",)
_FAST_RETRANSMIT_KEYS = ("kind", "seq", "length")
_RTO_RETRANSMIT_KEYS = ("kind", "seq", "length", "rto")
_DUPLICATE_DELIVERY_KEYS = ("seq", "length")
_CLOSED_KEYS = ("reset",)
_CONN_KEYS = ("conn",)


class TCPState(enum.Enum):
    """Connection states (RFC 793 names)."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"


class TCPConnection:
    """One endpoint of a simulated TCP connection.

    Callbacks (all optional):
        on_established: invoked once when the handshake completes.
        on_message(message, duplicate): an application message (TLS
            record) has been fully received; ``duplicate`` is True when
            the delivery was triggered by a retransmitted segment under
            the ``deliver_duplicate_messages`` quirk.
        on_close(reset): the connection finished (``reset`` True if RST).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_port: int,
        remote: Endpoint,
        config: Optional[TCPConfig] = None,
        trace: Optional[TraceLog] = None,
        owns_port: bool = True,
        name: str = "",
    ) -> None:
        self._sim = sim
        self._host = host
        self.local = host.endpoint(local_port)
        self.remote = remote
        self.config = config or TCPConfig()
        self._trace = trace
        self.name = name or f"{self.local}->{self.remote}"
        self.state = TCPState.CLOSED

        # Sender state.
        self.layout = StreamLayout()
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest sequence ever transmitted
        self.cc = make_congestion_control(
            self.config.congestion_control,
            self.config.mss,
            self.config.initial_window_segments,
            now=lambda: self._sim.now,
        )
        self.rto = RTOEstimator(self.config.min_rto, self.config.max_rto)
        self.peer_window = self.config.receive_window
        self._dupacks = 0
        self._retransmit_timer = Timer(sim, self._on_rto, name=f"{self.name}.rto")
        self._sample_end: Optional[int] = None
        self._sample_time = 0.0
        self.retransmitted_segments = 0
        #: SACK scoreboard: peer-reported received ranges above snd_una.
        self._sack_scoreboard: list = []
        self._syn_time = 0.0
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        # Receiver state.
        self.reassembly = ReassemblyBuffer()
        self._peer_layout: Optional[StreamLayout] = None
        self._delivered_upto = 0
        self._segments_since_ack = 0
        self._delack_timer = Timer(sim, self._send_ack_now, name=f"{self.name}.delack")
        self._fin_received = False

        # Callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_message: Optional[Callable[[Any, bool], None]] = None
        self.on_close: Optional[Callable[[bool], None]] = None
        #: Invoked whenever acknowledged progress frees send-buffer space,
        #: so the application (HTTP/2 write pump) can push more data.
        self.on_writable: Optional[Callable[[], None]] = None

        self._owns_port = owns_port
        if owns_port:
            host.bind(local_port, self.handle_packet)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client side: start the three-way handshake."""
        if self.state is not TCPState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TCPState.SYN_SENT
        self._syn_time = self._sim.now
        self._emit(FLAGS_SYN)
        self._retransmit_timer.start(self.rto.rto)
        self._record("tcp.syn_sent")

    def accept_syn(self) -> None:
        """Server side: respond to a received SYN (called by the listener)."""
        self.state = TCPState.SYN_RCVD
        self._emit(FLAGS_SYN_ACK)
        self._retransmit_timer.start(self.rto.rto)
        self._record("tcp.syn_rcvd")

    def send_message(self, message: Any, length: Optional[int] = None) -> None:
        """Queue an application message (TLS record) for transmission."""
        if self.state not in (
            TCPState.ESTABLISHED,
            TCPState.CLOSE_WAIT,
            TCPState.SYN_RCVD,
            TCPState.SYN_SENT,
        ):
            raise RuntimeError(f"send_message() in state {self.state}")
        self.layout.append(message, length)
        self._try_send()

    def close(self) -> None:
        """Begin an orderly shutdown (FIN after pending data drains)."""
        if self.state is TCPState.ESTABLISHED:
            self.state = TCPState.FIN_WAIT_1
        elif self.state is TCPState.CLOSE_WAIT:
            self.state = TCPState.LAST_ACK
        else:
            return
        self._fin_sent = True
        self._maybe_send_fin()

    def reset(self) -> None:
        """Abort the connection with RST."""
        if self.state is TCPState.CLOSED:
            return
        self._emit(FLAGS_RST_ACK)
        self._teardown(reset=True)

    @property
    def sim(self) -> Simulator:
        """The simulator this connection runs on."""
        return self._sim

    @property
    def is_closed(self) -> bool:
        """Whether the connection has fully terminated (transport API)."""
        return self.state is TCPState.CLOSED

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def unacked_buffered_bytes(self) -> int:
        """Bytes written by the application but not yet acknowledged —
        the occupancy of a real socket's send buffer."""
        return self.layout.next_seq - self.snd_una

    @property
    def send_window(self) -> int:
        """Usable window: min(cwnd, peer receive window)."""
        return min(self.cc.cwnd, self.peer_window)

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Entry point for packets addressed to this connection."""
        segment: TCPSegment = packet.segment
        if segment is None:
            return
        flags = segment.flags
        if RST in flags:
            self._record("tcp.rst_received")
            self._teardown(reset=True)
            return

        if self.state is TCPState.SYN_SENT:
            if SYN in flags and ACK in flags:
                self._retransmit_timer.cancel()
                if self.rto.backoff == 1:
                    # Karn: only sample when the SYN was not retransmitted.
                    self.rto.on_sample(self._sim.now - self._syn_time)
                self.state = TCPState.ESTABLISHED
                self._send_ack_now()
                self._record("tcp.established", _ROLE_KEYS, ("client",))
                if self.on_established:
                    self.on_established()
                self._try_send()
            return

        if self.state is TCPState.SYN_RCVD:
            if ACK in flags and SYN not in flags:
                self._retransmit_timer.cancel()
                self.state = TCPState.ESTABLISHED
                self._record("tcp.established", _ROLE_KEYS, ("server",))
                if self.on_established:
                    self.on_established()
                # Fall through: the ACK may carry data.
            elif SYN in flags:
                # Duplicate SYN: re-answer.
                self._emit(FLAGS_SYN_ACK)
                return

        if self.state is TCPState.CLOSED:
            return

        if ACK in flags:
            self._handle_ack(segment)
        if segment.payload_bytes > 0:
            self._handle_data(segment)
        if FIN in flags:
            self._handle_fin(segment)

    # ------------------------------------------------------------------
    # Sender
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self.state not in (
            TCPState.ESTABLISHED,
            TCPState.CLOSE_WAIT,
            TCPState.FIN_WAIT_1,
            TCPState.LAST_ACK,
        ):
            return
        limit = self.send_window
        layout = self.layout
        mss = self.config.mss
        while True:
            snd_nxt = self.snd_nxt
            in_flight = snd_nxt - self.snd_una
            available = layout.next_seq - snd_nxt
            if available <= 0 or in_flight >= limit:
                break
            scoreboard = self._sack_scoreboard
            if scoreboard:
                # SACK: never resend ranges the peer already holds.
                skipped = self._skip_sacked(snd_nxt)
                if skipped != snd_nxt:
                    self.snd_nxt = skipped
                    continue
            length = min(mss, available, limit - in_flight)
            if length <= 0:
                break
            if scoreboard:
                # Clip at the next sacked range so chunks stay hole-aligned.
                next_sacked = self._next_sacked_start(snd_nxt)
                if next_sacked is not None:
                    length = min(length, next_sacked - snd_nxt)
            # After an RTO rewound snd_nxt (go-back-N), sends below
            # snd_max are retransmissions of previously sent data.
            self._send_data_segment(snd_nxt, length, snd_nxt < self.snd_max)
            self.snd_nxt = snd_nxt + length
        if self.snd_una < self.snd_nxt and not self._retransmit_timer.armed:
            self._retransmit_timer.start(self.rto.rto)
        self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        if (
            self._fin_sent
            and self._fin_seq is None
            and self.snd_nxt >= self.layout.next_seq
        ):
            # The FIN consumes one sequence number so its ACK is
            # distinguishable (ack = fin_seq + 1).
            self._fin_seq = self.snd_nxt
            self._emit(FLAGS_FIN_ACK)
            self.snd_nxt += 1
            self.snd_max = max(self.snd_max, self.snd_nxt)
            if not self._retransmit_timer.armed:
                self._retransmit_timer.start(self.rto.rto)
            self._record("tcp.fin_sent")

    def _own_sack_blocks(self) -> tuple:
        """Out-of-order ranges to advertise (up to 3, SACK enabled)."""
        if not self.config.sack:
            return ()
        return self.reassembly.first_ranges(3)

    def _send_data_segment(self, seq: int, length: int, retransmission: bool) -> None:
        spans = self.layout.spans_starting_in(seq, seq + length)
        sack_blocks = self._own_sack_blocks()
        segment = TCPSegment(
            seq=seq,
            ack=self.reassembly.rcv_nxt,
            flags=FLAGS_ACK,
            payload_bytes=length,
            window=self.config.receive_window,
            option_bytes=self.config.option_bytes
            + (2 + 8 * len(sack_blocks) if sack_blocks else 0),
            layout=self.layout,
            tls_records=tuple([span.message for span in spans]),
            is_retransmission=retransmission,
            sack_blocks=sack_blocks,
        )
        self._transmit(segment)
        self.snd_max = max(self.snd_max, seq + length)
        if retransmission:
            self.retransmitted_segments += 1
            if (
                self._sample_end is not None
                and seq < self._sample_end
            ):
                self._sample_end = None  # Karn: discard tainted sample
        elif self._sample_end is None:
            self._sample_end = seq + length
            self._sample_time = self._sim.now
        self._segments_since_ack = 0
        self._delack_timer.cancel()

    # -- SACK scoreboard ---------------------------------------------------

    def _record_sack_blocks(self, blocks) -> None:
        """Merge peer-reported received ranges into the scoreboard."""
        for start, end in blocks:
            if end <= self.snd_una or end <= start:
                continue
            self._sack_scoreboard.append((max(start, self.snd_una), end))
        merged = []
        for start, end in sorted(self._sack_scoreboard):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sack_scoreboard = merged

    def _prune_sack_scoreboard(self) -> None:
        self._sack_scoreboard = [
            (max(start, self.snd_una), end)
            for start, end in self._sack_scoreboard
            if end > self.snd_una
        ]

    def _skip_sacked(self, seq: int) -> int:
        """The first sequence number at or after ``seq`` not covered by
        a sacked range."""
        for start, end in self._sack_scoreboard:
            if start <= seq < end:
                return end
        return seq

    def _next_sacked_start(self, seq: int):
        """Start of the next sacked range after ``seq``, or None."""
        for start, _ in self._sack_scoreboard:
            if start > seq:
                return start
        return None

    def _handle_ack(self, segment: TCPSegment) -> None:
        self.peer_window = segment.window
        if self.config.sack and segment.sack_blocks:
            self._record_sack_blocks(segment.sack_blocks)
        ack = segment.ack
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            if self.snd_nxt < self.snd_una:
                # The ACK covers data past a go-back-N rewind point
                # (the receiver had buffered it out of order).
                self.snd_nxt = self.snd_una
            self._dupacks = 0
            self.rto.reset_backoff()
            if self._sack_scoreboard:
                self._prune_sack_scoreboard()
            if self._sample_end is not None and ack >= self._sample_end:
                self.rto.on_sample(self._sim.now - self._sample_time)
                self._sample_end = None
            self.cc.on_ack_progress(acked, self.snd_una)
            if self.snd_una >= self.snd_nxt:
                self._retransmit_timer.cancel()
            else:
                self._retransmit_timer.start(self.rto.rto)
            self._handle_fin_ack(ack)
            self._try_send()
            if self.on_writable:
                self.on_writable()
        elif (
            ack == self.snd_una
            and self.snd_nxt > self.snd_una
            and segment.is_pure_ack
        ):
            self._dupacks += 1
            if self._dupacks == self.config.dupack_threshold:
                self._fast_retransmit()
            elif self._dupacks > self.config.dupack_threshold:
                self.cc.on_duplicate_ack_in_recovery()
                self._try_send()

    def _fast_retransmit(self) -> None:
        length = min(self.config.mss, self.snd_nxt - self.snd_una)
        if length <= 0:
            return
        self.cc.on_fast_retransmit(self.bytes_in_flight, self.snd_nxt)
        self._record(
            "tcp.retransmit", _FAST_RETRANSMIT_KEYS, ("fast", self.snd_una, length)
        )
        self._send_data_segment(self.snd_una, length, retransmission=True)
        self._retransmit_timer.start(self.rto.rto)

    def _on_rto(self) -> None:
        if self.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD):
            # Handshake retransmission.
            flags = (
                FLAGS_SYN if self.state is TCPState.SYN_SENT else FLAGS_SYN_ACK
            )
            self.rto.on_timeout()
            self._emit(flags)
            self._retransmit_timer.start(self.rto.rto)
            self._record("tcp.retransmit", _KIND_KEYS, ("handshake",))
            return
        if self._fin_seq is not None and self.snd_una >= self.layout.next_seq:
            # Only the FIN is outstanding.
            self.rto.on_timeout()
            self._emit(FLAGS_FIN_ACK)
            self._retransmit_timer.start(self.rto.rto)
            self._record("tcp.retransmit", _KIND_KEYS, ("fin",))
            return
        if self.snd_una >= self.snd_nxt:
            return
        self.cc.on_timeout(self.bytes_in_flight)
        self.rto.on_timeout()
        self._dupacks = 0
        self._record(
            "tcp.retransmit",
            _RTO_RETRANSMIT_KEYS,
            (
                "rto",
                self.snd_una,
                min(self.config.mss, self.snd_nxt - self.snd_una),
                self.rto.rto,
            ),
        )
        # Go-back-N: rewind and let _try_send retransmit from snd_una as
        # the (collapsed) congestion window allows.
        self.snd_nxt = self.snd_una
        self._retransmit_timer.start(self.rto.rto)
        self._try_send()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _handle_data(self, segment: TCPSegment) -> None:
        if self._peer_layout is None:
            self._peer_layout = segment.layout
        old_rcv_nxt = self.reassembly.rcv_nxt
        new_rcv_nxt, was_duplicate = self.reassembly.receive(
            segment.seq, segment.end_seq
        )

        if (
            was_duplicate
            and self.config.deliver_duplicate_messages
            and segment.layout is not None
        ):
            self._deliver_duplicates(segment)

        if new_rcv_nxt > old_rcv_nxt:
            self._deliver_new_messages(new_rcv_nxt)

        # ACK strategy: immediate ACK for out-of-order or duplicate
        # segments (dup ACK generation), delayed ACK otherwise.
        if was_duplicate or self.reassembly.has_gap or segment.seq > old_rcv_nxt:
            self._send_ack_now()
        elif self.config.delayed_ack:
            self._segments_since_ack += 1
            if self._segments_since_ack >= 2:
                self._send_ack_now()
            elif not self._delack_timer.armed:
                self._delack_timer.start(self.config.delayed_ack_timeout)
        else:
            self._send_ack_now()

    def _deliver_new_messages(self, upto: int) -> None:
        layout = self._peer_layout
        if layout is None:
            return
        for span in layout.spans_completed_in(self._delivered_upto, upto):
            if span.end <= self._delivered_upto:
                continue  # a reentrant delivery already covered it
            self._delivered_upto = span.end
            if self.on_message:
                self.on_message(span.message, False)

    def _deliver_duplicates(self, segment: TCPSegment) -> None:
        """The paper's quirk: a retransmitted segment that fully covers an
        already-delivered message triggers a fresh application delivery.

        Only the first covered message is re-delivered: the observed
        behaviour is one duplicate request per retransmission event
        (ReqO2*, ReqO2** in Figure 4), not one per coalesced record.
        """
        for span in segment.layout.spans_contained(segment.seq, segment.end_seq):
            if span.end <= self._delivered_upto:
                self._record(
                    "tcp.duplicate_delivery",
                    _DUPLICATE_DELIVERY_KEYS,
                    (span.start, span.length),
                )
                if self.on_message:
                    self.on_message(span.message, True)
                break

    def _handle_fin(self, segment: TCPSegment) -> None:
        if self._fin_received:
            self._send_ack_now()
            return
        self._fin_received = True
        # The peer's FIN occupies one sequence number.
        self.reassembly.receive(segment.seq, segment.seq + 1)
        self._send_ack_now()
        if self.state is TCPState.ESTABLISHED:
            self.state = TCPState.CLOSE_WAIT
        elif self.state is TCPState.FIN_WAIT_1:
            self.state = TCPState.CLOSING
        elif self.state is TCPState.FIN_WAIT_2:
            self._enter_time_wait()
        self._record("tcp.fin_received")

    def _handle_fin_ack(self, ack: int) -> None:
        if self._fin_seq is None or ack <= self._fin_seq:
            return
        if self.state is TCPState.FIN_WAIT_1:
            self.state = TCPState.FIN_WAIT_2
        elif self.state is TCPState.CLOSING:
            self._enter_time_wait()
        elif self.state is TCPState.LAST_ACK:
            self._teardown(reset=False)

    def _enter_time_wait(self) -> None:
        self.state = TCPState.TIME_WAIT
        # 2*MSL truncated to something simulation-friendly.
        self._sim.schedule(1.0, lambda: self._teardown(reset=False))

    def _teardown(self, reset: bool) -> None:
        if self.state is TCPState.CLOSED:
            return
        self.state = TCPState.CLOSED
        self._retransmit_timer.cancel()
        self._delack_timer.cancel()
        if self._owns_port:
            self._host.unbind(self.local.port)
        self._record("tcp.closed", _CLOSED_KEYS, (reset,))
        if self.on_close:
            self.on_close(reset)

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _send_ack_now(self) -> None:
        self._delack_timer.cancel()
        self._segments_since_ack = 0
        self._emit(FLAGS_ACK)

    def _emit(self, flags) -> None:
        flags = flag_set(flags)
        seq = self.snd_nxt
        if FIN in flags and self._fin_seq is not None:
            seq = self._fin_seq  # retransmitted FINs keep their number
        sack_blocks = self._own_sack_blocks()
        segment = TCPSegment(
            seq=seq,
            ack=self.reassembly.rcv_nxt,
            flags=flags,
            payload_bytes=0,
            window=self.config.receive_window,
            option_bytes=self.config.option_bytes
            + (2 + 8 * len(sack_blocks) if sack_blocks else 0),
            sack_blocks=sack_blocks,
        )
        self._transmit(segment)

    def _transmit(self, segment: TCPSegment) -> None:
        packet = Packet(self.local, self.remote, segment)
        self._host.send(packet)

    def _record(self, category: str, keys: tuple = (), values: tuple = ()) -> None:
        if self._trace is not None:
            self._trace.record(
                self._sim.now, category, _CONN_KEYS + keys, (self.name,) + values
            )

    def __repr__(self) -> str:
        return (
            f"TCPConnection({self.name!r}, {self.state.value}, "
            f"una={self.snd_una}, nxt={self.snd_nxt}, cwnd={self.cc.cwnd})"
        )
