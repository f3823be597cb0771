"""The HTTP/2 connection: framing, streams, flow control, write pump.

One :class:`H2Connection` sits on a :class:`~repro.tls.session.TLSSession`
and owns:

* the connection preface and SETTINGS exchange,
* HPACK encoder/decoder state for each direction,
* the stream table and per-stream/connection flow-control windows,
* a pluggable :class:`~repro.h2.mux.MuxScheduler` whose drain order *is*
  the multiplexing the paper studies, and
* a write pump coupled to TCP send-buffer occupancy, so scheduler
  decisions happen continuously as the transport drains rather than all
  at once (this coupling is what lets concurrently served objects
  interleave on the wire).

Role-specific application behaviour (spawning response workers, issuing
requests) lives in :mod:`repro.h2.server` and :mod:`repro.h2.client`.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.h2.errors import H2Error, H2ErrorCode, StreamError
from repro.h2.flowcontrol import FlowControlWindow
from repro.h2.frames import (
    DataFrame,
    Frame,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.h2.mux import MuxScheduler, RoundRobinScheduler
from repro.h2.settings import H2Settings
from repro.h2.stream import H2Stream, StreamState
from repro.hpack.codec import HpackDecoder, HpackEncoder
from repro.simkernel.trace import TraceLog
from repro.tls.session import TLSSession

#: The RFC 7540 §3.5 client connection preface (24 octets of plaintext).
CONNECTION_PREFACE_BYTES = 24

#: Default initial connection-level flow-control window (RFC 7540 §6.9.2).
DEFAULT_CONNECTION_WINDOW = 65535

#: Trace field names, one tuple per row shape.  The per-frame rows are
#: written directly, ``conn`` first; ``_record`` puts ``conn`` in front
#: of the others.
_FRAME_SENT_KEYS = ("conn", "frame_type", "stream", "wire")
_FRAME_RECEIVED_KEYS = ("conn", "frame_type", "stream", "duplicate")
_RST_SENT_KEYS = ("stream", "code")
_RST_RECEIVED_KEYS = ("stream", "code", "flushed_frames")
_CONN_KEYS = ("conn",)


class H2Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class _Preface:
    """The 24-octet client magic, as an opaque TLS payload."""

    wire_length = CONNECTION_PREFACE_BYTES

    def __repr__(self) -> str:
        return "_Preface()"


class H2Connection:
    """One endpoint of an HTTP/2 connection.

    Callbacks (wired by the server/client layers):
        on_headers(stream_id, headers, end_stream, duplicate)
        on_data(stream_id, data_bytes, end_stream, frame)
        on_rst_stream(stream_id, code)
        on_settings(settings_dict)
        on_goaway(last_stream_id, code)
        on_ready(): preface/settings exchanged; requests may flow.
    """

    def __init__(
        self,
        session: TLSSession,
        role: H2Role,
        settings: Optional[H2Settings] = None,
        scheduler: Optional[MuxScheduler] = None,
        trace: Optional[TraceLog] = None,
        send_buffer_limit: int = 64 * 1024,
        ignore_closed_stream_data: bool = True,
        name: str = "",
    ) -> None:
        self._session = session
        # Resolved once: the pump and every trace row read them.
        self._transport = session.connection
        self._sim = self._transport.sim
        self.role = role
        self.settings = settings or H2Settings()
        self.peer_settings = H2Settings()
        self.scheduler = scheduler or RoundRobinScheduler()
        self._trace = trace
        self.send_buffer_limit = send_buffer_limit
        self.ignore_closed_stream_data = ignore_closed_stream_data
        self.name = name or role.value

        self.streams: Dict[int, H2Stream] = {}
        self._next_stream_id = 1 if role is H2Role.CLIENT else 2
        self.connection_send_window = FlowControlWindow(DEFAULT_CONNECTION_WINDOW)
        self.connection_recv_window = FlowControlWindow(DEFAULT_CONNECTION_WINDOW)
        self._recv_window_initial = DEFAULT_CONNECTION_WINDOW

        self.encoder = HpackEncoder(self.peer_settings.header_table_size)
        self.decoder = HpackDecoder(self.settings.header_table_size)

        self.ready = False
        self.goaway_received = False
        self.frames_sent = 0
        self.frames_received = 0
        self.ignored_closed_stream_frames = 0

        # Application callbacks.
        self.on_headers: Optional[
            Callable[[int, Tuple[Tuple[str, str], ...], bool, bool], None]
        ] = None
        self.on_data: Optional[Callable[[int, int, bool, DataFrame], None]] = None
        self.on_rst_stream: Optional[Callable[[int, H2ErrorCode], None]] = None
        self.on_settings: Optional[Callable[[Dict[int, int]], None]] = None
        self.on_goaway: Optional[Callable[[int, H2ErrorCode], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None
        self.on_push_promise: Optional[
            Callable[[int, int, Tuple[Tuple[str, str], ...]], None]
        ] = None

        # Frame type → receive handler, built once (not per frame).
        self._frame_handlers: Dict[type, Callable[[Any, bool], None]] = {
            HeadersFrame: self._recv_headers,
            DataFrame: self._recv_data,
            SettingsFrame: self._recv_settings,
            RstStreamFrame: self._recv_rst,
            WindowUpdateFrame: self._recv_window_update,
            PriorityFrame: self._recv_priority,
            PingFrame: self._recv_ping,
            GoAwayFrame: self._recv_goaway,
            PushPromiseFrame: self._recv_push_promise,
        }

        session.on_application_record = self._on_record
        previous_complete = session.on_handshake_complete
        def handshake_done() -> None:
            if previous_complete:
                previous_complete()
            self._start()
        session.on_handshake_complete = handshake_done
        self._transport.on_writable = self.pump

    @property
    def session(self) -> TLSSession:
        return self._session

    @property
    def sim(self):
        return self._sim

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self.role is H2Role.CLIENT:
            self._session.send_application(_Preface(), CONNECTION_PREFACE_BYTES)
        diff = self.settings.changed_from(H2Settings())
        self._write_control(SettingsFrame(settings=diff))
        # Endpoints may transmit immediately after their own preface
        # (RFC 7540 §3.5); readiness does not wait for the peer.
        self.ready = True
        if self.on_ready:
            self.on_ready()
        self.pump()

    # ------------------------------------------------------------------
    # Sending (application plane)
    # ------------------------------------------------------------------

    def next_stream_id(self) -> int:
        """Allocate the next locally initiated stream id."""
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        return stream_id

    def send_headers(
        self,
        stream_id: int,
        headers: List[Tuple[str, str]],
        end_stream: bool = False,
        priority_weight: Optional[int] = None,
        priority_depends_on: int = 0,
        context: Any = None,
    ) -> HeadersFrame:
        """Queue a HEADERS frame on ``stream_id``.

        The HPACK block is encoded at *write* time (in
        :meth:`_commit_frame_state`), not here: a queued frame may still
        be flushed by RST_STREAM, and encoding it early would desync the
        connection-level HPACK tables.
        """
        frame = HeadersFrame(
            stream_id=stream_id,
            headers=tuple(headers),
            block=None,
            end_stream=end_stream,
            priority_weight=priority_weight,
            priority_depends_on=priority_depends_on,
            context=context,
        )
        self.scheduler.enqueue(stream_id, frame)
        self.pump()
        return frame

    def send_data(
        self,
        stream_id: int,
        data_bytes: int,
        end_stream: bool = False,
        context: Any = None,
        padding: int = 0,
    ) -> DataFrame:
        """Queue a DATA frame (``data_bytes`` payload octets)."""
        if data_bytes > self.peer_settings.max_frame_size:
            raise H2Error(
                H2ErrorCode.FRAME_SIZE_ERROR,
                f"{data_bytes} exceeds peer max frame size",
            )
        frame = DataFrame(
            stream_id=stream_id,
            data_bytes=data_bytes,
            end_stream=end_stream,
            context=context,
            padding=padding,
        )
        self.scheduler.enqueue(stream_id, frame)
        self.pump()
        return frame

    def send_push_promise(
        self,
        parent_stream_id: int,
        headers: List[Tuple[str, str]],
        context: Any = None,
    ) -> int:
        """Promise a server push on ``parent_stream_id``.

        Allocates and returns the promised (even) stream id.  The
        PUSH_PROMISE rides the parent stream's queue; the pushed
        response is then sent on the promised stream with
        :meth:`send_headers` / :meth:`send_data`.
        """
        if self.role is not H2Role.SERVER:
            raise H2Error(
                H2ErrorCode.PROTOCOL_ERROR, "only servers push"
            )
        if not self.peer_settings.enable_push:
            raise H2Error(
                H2ErrorCode.PROTOCOL_ERROR, "peer disabled push"
            )
        promised_id = self.next_stream_id()
        frame = PushPromiseFrame(
            stream_id=parent_stream_id,
            promised_stream_id=promised_id,
            headers=tuple(headers),
            block=None,  # encoded at wire-write time, like HEADERS
            context=context,
        )
        self.scheduler.enqueue(parent_stream_id, frame)
        self.pump()
        return promised_id

    def send_rst_stream(
        self, stream_id: int, code: H2ErrorCode = H2ErrorCode.CANCEL
    ) -> None:
        """Abort a stream: flush its queued frames and emit RST_STREAM."""
        self.scheduler.flush_stream(stream_id)
        stream = self.streams.get(stream_id)
        if stream is not None:
            stream.reset(code)
        self._write_control(RstStreamFrame(stream_id=stream_id, error_code=code))
        self._record("h2.rst_stream.sent", _RST_SENT_KEYS, (stream_id, int(code)))

    def send_priority(
        self, stream_id: int, depends_on: int = 0, weight: int = 16,
        exclusive: bool = False,
    ) -> None:
        self._write_control(
            PriorityFrame(
                stream_id=stream_id,
                depends_on=depends_on,
                weight=weight,
                exclusive=exclusive,
            )
        )

    def send_ping(self) -> None:
        self._write_control(PingFrame())

    def send_goaway(self, code: H2ErrorCode = H2ErrorCode.NO_ERROR) -> None:
        last = max(
            (sid for sid in self.streams if sid % 2 != self._next_stream_id % 2),
            default=0,
        )
        self._write_control(GoAwayFrame(last_stream_id=last, error_code=code))

    def send_window_update(self, stream_id: int, increment: int) -> None:
        """Grant flow-control credit to the peer."""
        if stream_id == 0:
            self.connection_recv_window.replenish(increment)
        else:
            stream = self.streams.get(stream_id)
            if stream is not None and not stream.closed:
                stream.receive_window.replenish(increment)
        self._write_control(
            WindowUpdateFrame(stream_id=stream_id, increment=increment)
        )

    # ------------------------------------------------------------------
    # Write pump
    # ------------------------------------------------------------------

    def pump(self) -> None:
        """Drain the scheduler into TLS/TCP while buffer space allows."""
        if not self.ready or not self._session.handshake_complete:
            return
        transport = self._transport
        while transport.unacked_buffered_bytes < self.send_buffer_limit:
            frame = self.scheduler.next_frame(eligible=self._can_send)
            if frame is None:
                break
            self._commit_frame_state(frame)
            self._write(frame)

    def _can_send(self, frame: Frame) -> bool:
        if not isinstance(frame, DataFrame):
            return True
        if frame.data_bytes > self.connection_send_window.available:
            return False
        stream = self.streams.get(frame.stream_id)
        if (
            stream is not None
            and not stream.closed
            and frame.data_bytes > stream.send_window.available
        ):
            return False
        return True

    def _commit_frame_state(self, frame: Frame) -> None:
        """Apply state transitions (and HPACK encoding) at wire-write
        time, in wire order."""
        if isinstance(frame, PushPromiseFrame):
            if frame.block is None:
                frame.block = self.encoder.encode(list(frame.headers))
            promised = self._stream_for_send(frame.promised_stream_id)
            try:
                promised.reserve_local()
            except StreamError:
                pass
            return
        if isinstance(frame, HeadersFrame):
            if frame.block is None:
                frame.block = self.encoder.encode(frame.headers)
            stream = self._stream_for_send(frame.stream_id)
            if not stream.closed:
                try:
                    stream.send_headers(frame.end_stream)
                except StreamError:
                    # Duplicate serving (the paper's quirk) re-sends
                    # response headers on a finished stream; the wire
                    # does not care, so neither do we.
                    pass
        elif isinstance(frame, DataFrame):
            self.connection_send_window.consume(frame.data_bytes)
            stream = self._stream_for_send(frame.stream_id)
            if not stream.closed:
                try:
                    stream.send_data(frame.data_bytes, frame.end_stream)
                except (StreamError, H2Error):
                    pass
            else:
                stream.data_sent += frame.data_bytes

    def _stream_for_send(self, stream_id: int) -> H2Stream:
        stream = self.streams.get(stream_id)
        if stream is None:
            stream = H2Stream(
                stream_id,
                send_window=self.peer_settings.initial_window_size,
                receive_window=self.settings.initial_window_size,
            )
            self.streams[stream_id] = stream
        return stream

    def _write_control(self, frame: Frame) -> None:
        """Control frames bypass the scheduler (sent immediately)."""
        self._write(frame)

    def _write(self, frame: Frame) -> None:
        self.frames_sent += 1
        wire_length = frame.wire_length
        trace = self._trace
        if trace is not None:
            trace.record(
                self._sim.now,
                "h2.frame.sent",
                _FRAME_SENT_KEYS,
                (self.name, frame.type_name, frame.stream_id, wire_length),
            )
        self._session.send_application(frame, wire_length)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_record(self, payload: Any, duplicate: bool) -> None:
        if isinstance(payload, _Preface):
            return
        if not isinstance(payload, Frame):
            raise TypeError(f"unexpected TLS payload: {payload!r}")
        self.frames_received += 1
        trace = self._trace
        if trace is not None:
            trace.record(
                self._sim.now,
                "h2.frame.received",
                _FRAME_RECEIVED_KEYS,
                (self.name, payload.type_name, payload.stream_id, duplicate),
            )
        handler = self._frame_handlers.get(type(payload))
        if handler is not None:
            handler(payload, duplicate)

    def _recv_headers(self, frame: HeadersFrame, duplicate: bool) -> None:
        if duplicate:
            # The TCP retransmission quirk: surface the duplicate request
            # without touching protocol state.
            if self.on_headers:
                self.on_headers(frame.stream_id, frame.headers, frame.end_stream, True)
            return
        # HPACK state is connection-level: the block must be decoded even
        # when the stream is closed/reset, or the tables desynchronize.
        if frame.block is not None:
            self.decoder.decode(frame.block)
        stream = self._stream_for_send(frame.stream_id)
        if stream.closed:
            self.ignored_closed_stream_frames += 1
            if not self.ignore_closed_stream_data:
                self.send_rst_stream(frame.stream_id, H2ErrorCode.STREAM_CLOSED)
            return
        try:
            stream.receive_headers(frame.end_stream)
        except StreamError:
            self.ignored_closed_stream_frames += 1
            return
        if self.on_headers:
            self.on_headers(frame.stream_id, frame.headers, frame.end_stream, False)

    def _recv_data(self, frame: DataFrame, duplicate: bool) -> None:
        if duplicate:
            return
        stream = self.streams.get(frame.stream_id)
        if stream is None or stream.state not in (
            StreamState.OPEN,
            StreamState.HALF_CLOSED_LOCAL,
        ):
            # Data for an unknown, closed, or reset stream: a browser
            # tolerates this (late frames racing a RST), so do we.
            self.ignored_closed_stream_frames += 1
            self._consume_connection_credit(frame.data_bytes)
            return
        try:
            stream.receive_data(frame.data_bytes, frame.end_stream)
        except (StreamError, H2Error):
            self.ignored_closed_stream_frames += 1
            return
        self._consume_connection_credit(frame.data_bytes)
        self._replenish_stream_window(stream)
        if self.on_data:
            self.on_data(frame.stream_id, frame.data_bytes, frame.end_stream, frame)

    def _consume_connection_credit(self, data_bytes: int) -> None:
        window = self.connection_recv_window
        available = window.available
        consumed = min(data_bytes, available)
        window.consume(consumed)
        available -= consumed
        if available < self._recv_window_initial // 2:
            self.send_window_update(0, self._recv_window_initial - available)

    def _replenish_stream_window(self, stream: H2Stream) -> None:
        if stream.closed:
            return
        initial = self.settings.initial_window_size
        available = stream.receive_window.available
        if available < initial // 2:
            self.send_window_update(stream.stream_id, initial - available)

    def _recv_settings(self, frame: SettingsFrame, duplicate: bool) -> None:
        if duplicate or frame.ack:
            return
        self._apply_peer_settings(frame.settings)
        if self.on_settings:
            self.on_settings(frame.settings)
        self._write_control(SettingsFrame(ack=True))
        self.pump()

    def _apply_peer_settings(self, changes: Dict[int, int]) -> None:
        from repro.h2.settings import (
            SETTINGS_ENABLE_PUSH,
            SETTINGS_HEADER_TABLE_SIZE,
            SETTINGS_INITIAL_WINDOW_SIZE,
            SETTINGS_MAX_CONCURRENT_STREAMS,
            SETTINGS_MAX_FRAME_SIZE,
        )

        for setting_id, value in changes.items():
            if setting_id == SETTINGS_ENABLE_PUSH:
                self.peer_settings.enable_push = bool(value)
            elif setting_id == SETTINGS_INITIAL_WINDOW_SIZE:
                delta = value - self.peer_settings.initial_window_size
                self.peer_settings.initial_window_size = value
                for stream in self.streams.values():
                    if not stream.closed:
                        stream.send_window.adjust_initial(delta)
            elif setting_id == SETTINGS_MAX_FRAME_SIZE:
                self.peer_settings.max_frame_size = value
            elif setting_id == SETTINGS_MAX_CONCURRENT_STREAMS:
                self.peer_settings.max_concurrent_streams = value
            elif setting_id == SETTINGS_HEADER_TABLE_SIZE:
                self.peer_settings.header_table_size = value

    def _recv_rst(self, frame: RstStreamFrame, duplicate: bool) -> None:
        if duplicate:
            return
        flushed = self.scheduler.flush_stream(frame.stream_id)
        stream = self.streams.get(frame.stream_id)
        if stream is not None:
            stream.reset(frame.error_code)
        self._record(
            "h2.rst_stream.received",
            _RST_RECEIVED_KEYS,
            (frame.stream_id, int(frame.error_code), flushed),
        )
        if self.on_rst_stream:
            self.on_rst_stream(frame.stream_id, frame.error_code)
        self.pump()

    def _recv_window_update(self, frame: WindowUpdateFrame, duplicate: bool) -> None:
        if duplicate:
            return
        if frame.stream_id == 0:
            self.connection_send_window.replenish(frame.increment)
        else:
            stream = self.streams.get(frame.stream_id)
            if stream is not None and not stream.closed:
                stream.send_window.replenish(frame.increment)
        self.pump()

    def _recv_priority(self, frame: PriorityFrame, duplicate: bool) -> None:
        if duplicate:
            return
        tree = getattr(self.scheduler, "tree", None)
        if tree is not None:
            tree.reprioritize(
                frame.stream_id, frame.depends_on, frame.weight, frame.exclusive
            )

    def _recv_ping(self, frame: PingFrame, duplicate: bool) -> None:
        if duplicate or frame.ack:
            return
        self._write_control(PingFrame(ack=True))

    def _recv_goaway(self, frame: GoAwayFrame, duplicate: bool) -> None:
        if duplicate:
            return
        self.goaway_received = True
        if self.on_goaway:
            self.on_goaway(frame.last_stream_id, frame.error_code)

    def _recv_push_promise(self, frame: PushPromiseFrame, duplicate: bool) -> None:
        if duplicate:
            return
        # HPACK state is connection-level: always decode.
        if frame.block is not None:
            self.decoder.decode(frame.block)
        promised = self._stream_for_send(frame.promised_stream_id)
        try:
            promised.reserve_remote()
        except StreamError:
            return
        if self.on_push_promise:
            self.on_push_promise(
                frame.stream_id, frame.promised_stream_id, frame.headers
            )

    def _record(self, category: str, keys: tuple, values: tuple) -> None:
        if self._trace is not None:
            self._trace.record(
                self._sim.now, category, _CONN_KEYS + keys, (self.name,) + values
            )

    def __repr__(self) -> str:
        return (
            f"H2Connection({self.name!r}, streams={len(self.streams)}, "
            f"pending={self.scheduler.pending_frames})"
        )
