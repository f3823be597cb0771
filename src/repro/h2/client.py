"""The HTTP/2 client endpoint.

A thin, browser-agnostic client: it opens the transport+TLS+H2 stack
(TCP or the QUIC-like transport, selected via ``transport``), issues
GET requests on new streams, tracks per-stream response progress, and
can cancel streams with RST_STREAM.  Page-load behaviour (which objects
to request when, reset-and-retry policies) lives in
:mod:`repro.web.browser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.h2.connection import H2Connection, H2Role
from repro.h2.errors import H2ErrorCode
from repro.h2.settings import H2Settings, firefox_like_settings
from repro.netsim.address import Endpoint
from repro.netsim.node import Host
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog
from repro.tcp.config import TCPConfig
from repro.tls.session import TLSRole, TLSSession
from repro.transport import get_transport

#: Connection-level receive window a browser grants the server.
BROWSER_CONNECTION_WINDOW = 12 * 1024 * 1024

#: Trace field names, one tuple per row shape.
_STREAM_PATH_KEYS = ("stream", "path")
_RESPONSE_DONE_KEYS = ("stream", "path", "bytes")


@dataclass
class ResponseHandle:
    """Progress of one in-flight GET (or server-pushed response)."""

    stream_id: int
    path: str
    requested_at: float
    headers: Optional[Tuple[Tuple[str, str], ...]] = None
    received_bytes: int = 0
    complete: bool = False
    reset: bool = False
    pushed: bool = False
    completed_at: Optional[float] = None
    last_data_at: Optional[float] = None
    on_complete: Optional[Callable[["ResponseHandle"], None]] = None

    @property
    def finished(self) -> bool:
        return self.complete or self.reset


class H2Client:
    """One browser-side HTTP/2 connection to a server."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        server: Endpoint,
        local_port: int = 49152,
        settings: Optional[H2Settings] = None,
        tcp_config: Optional[TCPConfig] = None,
        trace: Optional[TraceLog] = None,
        authority: str = "www.example.com",
        transport: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.authority = authority
        self._trace = trace
        self.settings = settings or firefox_like_settings()
        # ``tcp`` keeps its historical name: it is the client's
        # transport connection, whatever implementation backs it.
        self.tcp = get_transport(transport).create_connection(
            sim,
            host,
            local_port,
            server,
            config=tcp_config or TCPConfig(),
            trace=trace,
            name=f"client:{local_port}",
        )
        self.tls = TLSSession(self.tcp, TLSRole.CLIENT, trace=trace)
        self.h2 = H2Connection(
            self.tls,
            H2Role.CLIENT,
            settings=self.settings,
            trace=trace,
            name=f"h2-client:{local_port}",
        )
        self.handles: Dict[int, ResponseHandle] = {}
        self.on_ready: Optional[Callable[[], None]] = None
        self.junk_data_frames = 0

        self.h2.on_headers = self._on_response_headers
        self.h2.on_data = self._on_data
        self.h2.on_rst_stream = self._on_rst
        self.h2.on_push_promise = self._on_push_promise
        previous_ready = self.h2.on_ready
        def ready() -> None:
            if previous_ready:
                previous_ready()
            self._grow_connection_window()
            if self.on_ready:
                self.on_ready()
        self.h2.on_ready = ready

    def connect(self) -> None:
        """Open the transport connection (handshakes follow automatically)."""
        self.tcp.connect()

    @property
    def ready(self) -> bool:
        return self.h2.ready

    def _grow_connection_window(self) -> None:
        deficit = BROWSER_CONNECTION_WINDOW - self.h2.connection_recv_window.available
        if deficit > 0:
            self.h2.send_window_update(0, deficit)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def get(
        self,
        path: str,
        priority_weight: Optional[int] = None,
        priority_depends_on: int = 0,
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> ResponseHandle:
        """Issue a GET for ``path`` on a fresh stream."""
        if not self.ready:
            raise RuntimeError("client not ready (handshake incomplete)")
        stream_id = self.h2.next_stream_id()
        headers: List[Tuple[str, str]] = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", self.authority),
            (":path", path),
            ("user-agent", "Mozilla/5.0 (X11; Linux x86_64; rv:74.0) Firefox/74.0"),
            ("accept", "*/*"),
            ("accept-language", "en-US,en;q=0.5"),
            ("accept-encoding", "gzip, deflate, br"),
        ]
        if extra_headers:
            headers.extend(extra_headers)
        handle = ResponseHandle(
            stream_id=stream_id, path=path, requested_at=self.sim.now
        )
        self.handles[stream_id] = handle
        self.h2.send_headers(
            stream_id,
            headers,
            end_stream=True,
            priority_weight=priority_weight,
            priority_depends_on=priority_depends_on,
        )
        self._record("h2.get", _STREAM_PATH_KEYS, (stream_id, path))
        return handle

    def cancel(
        self, stream_id: int, code: H2ErrorCode = H2ErrorCode.CANCEL
    ) -> None:
        """RST_STREAM an in-flight request."""
        handle = self.handles.get(stream_id)
        if handle is not None and not handle.finished:
            handle.reset = True
        self.h2.send_rst_stream(stream_id, code)

    def reset_all_active(self, code: H2ErrorCode = H2ErrorCode.CANCEL) -> List[int]:
        """RST every unfinished stream (the paper's client reaction to a
        persistently lossy channel).  Returns the stream ids reset."""
        reset_ids = []
        for stream_id, handle in list(self.handles.items()):
            if not handle.finished:
                self.cancel(stream_id, code)
                reset_ids.append(stream_id)
        return reset_ids

    @property
    def active_handles(self) -> List[ResponseHandle]:
        return [handle for handle in self.handles.values() if not handle.finished]

    # ------------------------------------------------------------------
    # Response events
    # ------------------------------------------------------------------

    def _on_response_headers(
        self,
        stream_id: int,
        headers: Tuple[Tuple[str, str], ...],
        end_stream: bool,
        duplicate: bool,
    ) -> None:
        handle = self.handles.get(stream_id)
        if handle is None or duplicate:
            return
        if handle.headers is None:
            handle.headers = headers
        if end_stream:
            self._finish(handle)

    def _on_data(
        self, stream_id: int, data_bytes: int, end_stream: bool, frame
    ) -> None:
        handle = self.handles.get(stream_id)
        if handle is None or handle.finished:
            self.junk_data_frames += 1
            return
        handle.received_bytes += data_bytes
        handle.last_data_at = self.sim.now
        if end_stream:
            self._finish(handle)

    def _on_push_promise(
        self,
        parent_stream_id: int,
        promised_stream_id: int,
        headers: Tuple[Tuple[str, str], ...],
    ) -> None:
        """Accept a server push: track the promised response like a GET
        the browser never had to issue."""
        path = dict(headers).get(":path", "")
        handle = ResponseHandle(
            stream_id=promised_stream_id,
            path=path,
            requested_at=self.sim.now,
            pushed=True,
        )
        self.handles[promised_stream_id] = handle
        self._record(
            "h2.push_accepted", _STREAM_PATH_KEYS, (promised_stream_id, path)
        )

    def _on_rst(self, stream_id: int, code: H2ErrorCode) -> None:
        handle = self.handles.get(stream_id)
        if handle is not None and not handle.finished:
            handle.reset = True

    def _finish(self, handle: ResponseHandle) -> None:
        handle.complete = True
        handle.completed_at = self.sim.now
        self._record(
            "h2.response_done",
            _RESPONSE_DONE_KEYS,
            (handle.stream_id, handle.path, handle.received_bytes),
        )
        if handle.on_complete:
            handle.on_complete(handle)

    def _record(self, category: str, keys: tuple, values: tuple) -> None:
        if self._trace is not None:
            self._trace.record(self.sim.now, category, keys, values)

    def __repr__(self) -> str:
        done = sum(1 for handle in self.handles.values() if handle.complete)
        return f"H2Client({self.authority}, {done}/{len(self.handles)} done)"
