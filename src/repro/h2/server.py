"""The multi-threaded HTTP/2 server model.

Every GET request spawns a *worker* (the paper's "server thread",
Figure 3) that, after a small processing delay, emits the response
HEADERS and then produces DATA chunks at a bounded rate into the
connection's multiplexing scheduler.  When several workers are active
at once their chunks interleave on the single TCP stream — the
multiplexing the paper attacks.

Two paper-critical behaviours:

* ``serve_duplicate_requests`` (default True): a GET delivered again by
  a retransmitted TCP segment spawns a *new* worker serving a fresh
  copy of the object (Section IV-B's "intensified multiplexing").
* On RST_STREAM the connection flushes the stream's queued frames and
  the server cancels its workers — the queue-flush the targeted-drop
  phase of the attack relies on (Section IV-D).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.h2.connection import H2Connection, H2Role
from repro.h2.errors import H2ErrorCode
from repro.h2.mux import MuxScheduler, RoundRobinScheduler
from repro.h2.settings import H2Settings, default_server_settings
from repro.netsim.node import Host
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog
from repro.tcp.config import TCPConfig
from repro.tls.session import TLSRole, TLSSession
from repro.transport import get_transport
from repro.transport.base import Transport

_instance_ids = itertools.count(1)

#: Trace field names, one tuple per row shape.
_REQUEST_KEYS = ("stream", "path", "duplicate")
_PUSH_KEYS = ("parent", "promised", "path")
_RESPONSE_COMPLETE_KEYS = ("stream", "object", "duplicate")
_SERVER_RST_KEYS = ("stream", "code")


@dataclass
class ResourceSpec:
    """A servable resource: what the router returns for a path.

    ``think_time_range`` overrides the server's default processing
    delay: dynamically generated content (the survey-result HTML) takes
    far longer — and more variably — than static assets, which is one
    source of the natural multiplexing variance the paper observes.
    """

    path: str
    body_bytes: int
    content_type: str = "text/html"
    status: int = 200
    object_id: Optional[str] = None
    think_time_range: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.body_bytes <= 0:
            raise ValueError("resources must have a positive body size")
        if self.object_id is None:
            self.object_id = self.path
        if self.think_time_range is not None:
            low, high = self.think_time_range
            if low < 0 or high < low:
                raise ValueError("invalid think time range")


#: The router maps a request path to a resource (None = 404).
Router = Callable[[str], Optional[ResourceSpec]]


@dataclass
class ServerConfig:
    """Server behaviour knobs.

    Attributes:
        think_time: processing delay between receiving a GET and
            emitting response HEADERS.
        chunk_bytes: DATA frame payload produced per worker step; this
            is the interleaving granularity.
        chunk_interval: simulated time between a worker's chunk
            productions (filesystem/CPU pacing).
        serve_duplicate_requests: the paper's quirk (see module doc).
        send_buffer_limit: TCP send-buffer bytes the connection may keep
            unacknowledged before the write pump pauses.
        pad_block: per-record padding defense — every TLS application
            record's plaintext is padded to this block boundary
            (0 disables; see :mod:`repro.infer.defenses`).
        chaff_records / chaff_plaintext / chaff_interval: after each
            completed response, emit this many dummy TLS records of
            this plaintext size, spaced by this interval (0 disables).
        pipeline_responses: serialize response emission — a response's
            HEADERS wait until every earlier response on the connection
            has finished, trading multiplexing (the leak) for latency.
        scheduler_factory: builds one multiplexing scheduler per client
            connection (default: round-robin — a multi-threaded server).
    """

    think_time: float = 0.001
    chunk_bytes: int = 2048
    chunk_interval: float = 0.0004
    serve_duplicate_requests: bool = True
    send_buffer_limit: int = 128 * 1024
    pad_block: int = 0
    chaff_records: int = 0
    chaff_plaintext: int = 1024
    chaff_interval: float = 0.0004
    pipeline_responses: bool = False
    #: Server-push associations: when a request for a key path is
    #: served (not a duplicate), the listed paths are pushed on
    #: promised streams, in order.  The §VII push defense builds on
    #: this to deliver the emblem images in a canonical order.
    push_map: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    scheduler_factory: Callable[[], MuxScheduler] = RoundRobinScheduler

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if self.think_time < 0 or self.chunk_interval < 0:
            raise ValueError("delays must be non-negative")
        if self.pad_block < 0 or self.chaff_records < 0:
            raise ValueError("defense knobs must be non-negative")
        if self.chaff_plaintext <= 0 or self.chaff_interval < 0:
            raise ValueError("bad chaff shape")


@dataclass(eq=False)  # identity semantics: each serving is unique
class ResponseInstance:
    """One serving of one object (duplicate serves get new instances).

    Ground-truth accounting keys off these objects: every DATA frame of
    the serving carries a reference in its ``context`` field.
    """

    instance_id: int
    object_id: str
    path: str
    stream_id: int
    body_bytes: int
    duplicate: bool
    started_at: float
    finished_at: Optional[float] = None
    cancelled: bool = False
    bytes_emitted: int = 0

    @property
    def complete(self) -> bool:
        return self.finished_at is not None

    def __repr__(self) -> str:
        dup = " dup" if self.duplicate else ""
        return (
            f"ResponseInstance(#{self.instance_id} {self.object_id} "
            f"stream={self.stream_id}{dup})"
        )


class _ServedConnection:
    """Per-client-connection server state."""

    def __init__(self, server: "H2Server", tcp: Transport) -> None:
        self.server = server
        self.tcp = tcp
        self.tls = TLSSession(
            tcp, TLSRole.SERVER, trace=server._trace,
            pad_block=server.config.pad_block,
        )
        self.h2 = H2Connection(
            self.tls,
            H2Role.SERVER,
            settings=server.settings,
            scheduler=server.config.scheduler_factory(),
            trace=server._trace,
            send_buffer_limit=server.config.send_buffer_limit,
            name=f"h2-server:{tcp.remote}",
        )
        self.instances: List[ResponseInstance] = []
        # Pipelining defense state: the instance currently emitting and
        # the FIFO of (instance, resource, queued_at) behind it.
        self._active_instance: Optional[ResponseInstance] = None
        self._response_queue: List[Tuple[ResponseInstance, ResourceSpec, float]] = []
        #: Total simulated seconds responses spent queued (the latency
        #: cost the pipelining defense reports).
        self.pipeline_wait_s = 0.0
        self.h2.on_headers = self._on_request
        self.h2.on_rst_stream = self._on_rst

    def _on_request(
        self,
        stream_id: int,
        headers: Tuple[Tuple[str, str], ...],
        end_stream: bool,
        duplicate: bool,
    ) -> None:
        header_map = dict(headers)
        method = header_map.get(":method", "GET")
        path = header_map.get(":path", "/")
        if duplicate and not self.server.config.serve_duplicate_requests:
            return
        if method != "GET":
            self._respond_error(stream_id, 405)
            return
        resource = self.server.router(path)
        if resource is None:
            self._respond_error(stream_id, 404)
            return
        self.server._record(
            "h2.request", _REQUEST_KEYS, (stream_id, path, duplicate)
        )
        instance = ResponseInstance(
            instance_id=next(_instance_ids),
            object_id=resource.object_id or path,
            path=path,
            stream_id=stream_id,
            body_bytes=resource.body_bytes,
            duplicate=duplicate,
            started_at=self.server.sim.now,
        )
        self.instances.append(instance)
        self.server.sim.schedule(
            self.server.draw_think_time(resource),
            lambda: self._emit_headers(instance, resource),
        )
        if not duplicate:
            self._push_associated(stream_id, path)

    def _push_associated(self, parent_stream_id: int, path: str) -> None:
        """Push the resources associated with ``path`` (ServerConfig
        push_map), each on its own promised stream."""
        for pushed_path in self.server.config.push_map.get(path, ()):
            resource = self.server.router(pushed_path)
            if resource is None:
                continue
            instance = ResponseInstance(
                instance_id=next(_instance_ids),
                object_id=resource.object_id or pushed_path,
                path=pushed_path,
                stream_id=0,  # patched below with the promised id
                body_bytes=resource.body_bytes,
                duplicate=False,
                started_at=self.server.sim.now,
            )
            promised_id = self.h2.send_push_promise(
                parent_stream_id,
                [
                    (":method", "GET"),
                    (":scheme", "https"),
                    (":authority", "www.isidewith.com"),
                    (":path", pushed_path),
                ],
                context=instance,
            )
            instance.stream_id = promised_id
            self.instances.append(instance)
            self.server._record(
                "h2.push", _PUSH_KEYS, (parent_stream_id, promised_id, pushed_path)
            )
            self.server.sim.schedule(
                self.server.draw_think_time(resource),
                lambda inst=instance, res=resource: self._emit_headers(inst, res),
            )

    def _respond_error(self, stream_id: int, status: int) -> None:
        self.h2.send_headers(
            stream_id,
            [(":status", str(status)), ("content-length", "0")],
            end_stream=True,
        )

    def _emit_headers(self, instance: ResponseInstance, resource: ResourceSpec) -> None:
        if instance.cancelled or self.tcp.is_closed:
            return
        if self.server.config.pipeline_responses:
            if (
                self._active_instance is not None
                and self._active_instance is not instance
            ):
                self._response_queue.append(
                    (instance, resource, self.server.sim.now)
                )
                return
            self._active_instance = instance
        self.h2.send_headers(
            instance.stream_id,
            self.server.response_headers(resource),
            end_stream=False,
            context=instance,
        )
        self._emit_chunk(instance)

    def _emit_chunk(self, instance: ResponseInstance) -> None:
        if instance.cancelled or self.tcp.is_closed:
            if instance is self._active_instance:
                self._advance_pipeline()
            return
        remaining = instance.body_bytes - instance.bytes_emitted
        chunk = min(self.server.config.chunk_bytes, remaining)
        last = chunk >= remaining
        self.h2.send_data(
            instance.stream_id,
            chunk,
            end_stream=last,
            context=instance,
        )
        instance.bytes_emitted += chunk
        if last:
            instance.finished_at = self.server.sim.now
            self.server._record(
                "h2.response_complete",
                _RESPONSE_COMPLETE_KEYS,
                (instance.stream_id, instance.object_id, instance.duplicate),
            )
            self._emit_chaff()
            if instance is self._active_instance:
                self._advance_pipeline()
        else:
            self.server.sim.schedule(
                self.server.config.chunk_interval,
                lambda: self._emit_chunk(instance),
            )

    def _advance_pipeline(self) -> None:
        """Start the next queued response (pipelining defense)."""
        self._active_instance = None
        while self._response_queue:
            instance, resource, queued_at = self._response_queue.pop(0)
            if instance.cancelled:
                continue
            self.pipeline_wait_s += self.server.sim.now - queued_at
            self._emit_headers(instance, resource)
            return

    def _emit_chaff(self) -> None:
        """Schedule the configured chaff records after a response."""
        config = self.server.config
        for slot in range(config.chaff_records):
            self.server.sim.schedule(
                config.chaff_interval * (slot + 1),
                self._send_one_chaff,
            )

    def _send_one_chaff(self) -> None:
        if self.tcp.is_closed or not self.tls.handshake_complete:
            return
        self.tls.send_chaff(self.server.config.chaff_plaintext)

    def _on_rst(self, stream_id: int, code: H2ErrorCode) -> None:
        for instance in self.instances:
            if instance.stream_id == stream_id and not instance.complete:
                instance.cancelled = True
        if (
            self._active_instance is not None
            and self._active_instance.cancelled
        ):
            self._advance_pipeline()
        self.server._record("h2.server_rst", _SERVER_RST_KEYS, (stream_id, int(code)))


class H2Server:
    """The HTTP/2 origin server.

    Args:
        router: path → :class:`ResourceSpec` lookup (the website).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        port: int,
        router: Router,
        config: Optional[ServerConfig] = None,
        settings: Optional[H2Settings] = None,
        tcp_config: Optional[TCPConfig] = None,
        trace: Optional[TraceLog] = None,
        rng: Optional[RandomStreams] = None,
        transport: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.router = router
        self.config = config or ServerConfig()
        self.settings = settings or default_server_settings()
        self._trace = trace
        self._rng = rng
        factory = get_transport(transport)
        tcp_config = factory.server_config(
            tcp_config, self.config.serve_duplicate_requests
        )
        self._tcp_config = tcp_config
        self.connections: List[_ServedConnection] = []
        self.listener = factory.create_listener(
            sim, host, port, self._on_accept, config=tcp_config, trace=trace
        )

    def _on_accept(self, tcp: Transport) -> None:
        self.connections.append(_ServedConnection(self, tcp))

    def draw_think_time(self, resource: ResourceSpec) -> float:
        """Processing delay for one request of ``resource``.

        Uses the resource's think-time range when given (dynamic
        content), drawing uniformly from the server's random stream;
        falls back to the fixed configured delay.
        """
        if resource.think_time_range is None:
            return self.config.think_time
        low, high = resource.think_time_range
        if self._rng is None or high <= low:
            return (low + high) / 2.0
        return self._rng.uniform(f"server.think.{resource.path}", low, high)

    def response_headers(self, resource: ResourceSpec) -> List[Tuple[str, str]]:
        """A realistic response header list for a resource."""
        return [
            (":status", str(resource.status)),
            ("server", "nginx/1.16.1"),
            ("date", "Tue, 17 Mar 2020 10:00:00 GMT"),
            ("content-type", resource.content_type),
            ("content-length", str(resource.body_bytes)),
            ("cache-control", "max-age=0, no-cache"),
            ("strict-transport-security", "max-age=31536000"),
        ]

    @property
    def all_instances(self) -> List[ResponseInstance]:
        """Every response instance across all connections."""
        return [
            instance
            for connection in self.connections
            for instance in connection.instances
        ]

    def _record(self, category: str, keys: tuple, values: tuple) -> None:
        if self._trace is not None:
            self._trace.record(self.sim.now, category, keys, values)

    def __repr__(self) -> str:
        return f"H2Server(port={self.listener.port}, conns={len(self.connections)})"
