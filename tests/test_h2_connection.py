"""Integration tests for HTTP/2 client/server over the full stack."""

import pytest

from repro.h2.client import H2Client
from repro.h2.errors import H2ErrorCode
from repro.h2.mux import FifoScheduler
from repro.h2.server import H2Server, ResourceSpec, ServerConfig
from repro.netsim.topology import build_adversary_path
from repro.core.metrics import MultiplexingReport


RESOURCES = {
    "/index.html": ResourceSpec("/index.html", 9500, "text/html"),
    "/a.png": ResourceSpec("/a.png", 12000, "image/png"),
    "/b.png": ResourceSpec("/b.png", 15000, "image/png"),
    "/big.js": ResourceSpec("/big.js", 80000, "application/javascript"),
}


def _headers_span(client):
    """The layout span of the client's first GET HEADERS record."""
    layout = client.tcp.layout
    for span in layout.spans_completed_by(layout.next_seq):
        payload = getattr(span.message, "payload", None)
        if getattr(payload, "type_name", "") == "HEADERS":
            return span
    raise AssertionError("no HEADERS record found in client layout")


def _stack(seed=21, server_config=None):
    topology = build_adversary_path(seed=seed)
    server = H2Server(
        topology.sim, topology.server, 443,
        lambda path: RESOURCES.get(path),
        config=server_config or ServerConfig(),
        trace=topology.trace,
    )
    client = H2Client(
        topology.sim, topology.client, topology.server.endpoint(443),
        trace=topology.trace, authority="test.example",
    )
    return topology, server, client


def test_single_get_roundtrip():
    topology, server, client = _stack()
    done = []
    client.on_ready = lambda: setattr(
        client.get("/index.html"), "on_complete", done.append
    )
    client.connect()
    topology.sim.run_until(5.0)
    assert len(done) == 1
    assert done[0].received_bytes == 9500
    assert done[0].headers is not None
    header_map = dict(done[0].headers)
    assert header_map[":status"] == "200"
    assert header_map["content-length"] == "9500"


def test_many_concurrent_gets_all_complete():
    topology, server, client = _stack()
    def go():
        for path in RESOURCES:
            client.get(path)
    client.on_ready = go
    client.connect()
    topology.sim.run_until(10.0)
    assert all(handle.complete for handle in client.handles.values())
    sizes = {h.path: h.received_bytes for h in client.handles.values()}
    assert sizes == {path: spec.body_bytes for path, spec in RESOURCES.items()}


def test_404_for_unknown_path():
    topology, server, client = _stack()
    done = []
    def go():
        handle = client.get("/missing")
        handle.on_complete = done.append
    client.on_ready = go
    client.connect()
    topology.sim.run_until(5.0)
    assert done and dict(done[0].headers)[":status"] == "404"


def test_concurrent_responses_interleave():
    """Two pipelined objects multiplex under round-robin."""
    topology, server, client = _stack()
    def go():
        client.get("/a.png")
        client.get("/b.png")
    client.on_ready = go
    client.connect()
    topology.sim.run_until(10.0)
    report = MultiplexingReport.from_layout(server.connections[0].tcp.layout)
    degrees = [
        degree for instance, degree in report.degrees.items()
        if instance.object_id in ("/a.png", "/b.png")
    ]
    assert len(degrees) == 2
    assert all(degree > 0.5 for degree in degrees)


def test_fifo_scheduler_serializes():
    topology, server, client = _stack(
        server_config=ServerConfig(scheduler_factory=FifoScheduler)
    )
    def go():
        client.get("/a.png")
        client.get("/b.png")
    client.on_ready = go
    client.connect()
    topology.sim.run_until(10.0)
    report = MultiplexingReport.from_layout(server.connections[0].tcp.layout)
    degrees = [
        degree for instance, degree in report.degrees.items()
        if instance.object_id in ("/a.png", "/b.png")
    ]
    assert degrees and all(degree == 0.0 for degree in degrees)


def test_rst_stream_cancels_and_flushes():
    topology, server, client = _stack(
        server_config=ServerConfig(chunk_interval=0.010)  # slow producer
    )
    handle_box = []
    def go():
        handle_box.append(client.get("/big.js"))
    client.on_ready = go
    client.connect()
    sim = topology.sim
    sim.run_until(0.25)
    assert handle_box
    client.cancel(handle_box[0].stream_id)
    sim.run_until(5.0)
    handle = handle_box[0]
    assert handle.reset
    assert not handle.complete
    assert handle.received_bytes < 80000
    # The server cancelled its worker.
    instance = server.all_instances[0]
    assert instance.cancelled


def test_duplicate_request_spawns_second_instance():
    """The §IV-B quirk end to end: a duplicate GET delivery re-serves."""
    topology, server, client = _stack()
    def go():
        client.get("/a.png")
    client.on_ready = go
    client.connect()
    sim = topology.sim
    sim.run_until(5.0)
    assert len(server.all_instances) == 1
    # Retransmit exactly the GET's record range (an RTO of that segment).
    span = _headers_span(client)
    client.tcp._send_data_segment(span.start, span.length, True)
    sim.run_until(10.0)
    duplicates = [i for i in server.all_instances if i.duplicate]
    assert len(duplicates) == 1
    assert duplicates[0].object_id == "/a.png"


def test_quirk_disabled_no_duplicate_instances():
    topology, server, client = _stack(
        server_config=ServerConfig(serve_duplicate_requests=False)
    )
    def go():
        client.get("/a.png")
    client.on_ready = go
    client.connect()
    sim = topology.sim
    sim.run_until(5.0)
    span = _headers_span(client)
    client.tcp._send_data_segment(span.start, span.length, True)
    sim.run_until(10.0)
    assert all(not instance.duplicate for instance in server.all_instances)


def test_stream_ids_odd_and_increasing():
    topology, server, client = _stack()
    ids = []
    def go():
        ids.append(client.get("/a.png").stream_id)
        ids.append(client.get("/b.png").stream_id)
    client.on_ready = go
    client.connect()
    topology.sim.run_until(5.0)
    assert ids == [1, 3]


def test_hpack_stays_synchronized_across_rst():
    """Flushing queued HEADERS must not desync the HPACK tables."""
    topology, server, client = _stack(
        server_config=ServerConfig(chunk_interval=0.002)
    )
    def go():
        for path in ("/a.png", "/b.png", "/big.js"):
            client.get(path)
    client.on_ready = go
    client.connect()
    sim = topology.sim
    sim.run_until(0.25)
    client.reset_all_active()
    sim.run_until(0.5)
    # New requests after the reset must decode fine.
    late = client.get("/index.html")
    done = []
    late.on_complete = done.append
    sim.run_until(8.0)
    assert done and done[0].received_bytes == 9500


def test_ping_answered():
    topology, server, client = _stack()
    client.on_ready = lambda: client.h2.send_ping()
    client.connect()
    topology.sim.run_until(3.0)
    pings = [
        record for record in topology.trace.select(category="h2.frame.sent")
        if record["frame_type"] == "PING"
    ]
    assert len(pings) == 2  # request + ack


def test_get_before_ready_raises():
    topology, server, client = _stack()
    with pytest.raises(RuntimeError):
        client.get("/index.html")
