"""Edge-path tests for the HTTP/2 connection layer."""

import pytest

from repro.h2.client import H2Client
from repro.h2.errors import H2Error, H2ErrorCode
from repro.h2.frames import PriorityFrame
from repro.h2.mux import PriorityScheduler
from repro.h2.server import H2Server, ResourceSpec, ServerConfig
from repro.netsim.topology import build_adversary_path

PRIORITY = ServerConfig(scheduler_factory=PriorityScheduler)

RESOURCES = {
    "/a.bin": ResourceSpec("/a.bin", 30_000, "application/octet-stream"),
    "/b.bin": ResourceSpec("/b.bin", 30_000, "application/octet-stream"),
}


def _stack(seed=61, server_config=None):
    topology = build_adversary_path(seed=seed)
    server = H2Server(
        topology.sim, topology.server, 443,
        lambda path: RESOURCES.get(path),
        config=server_config or ServerConfig(), trace=topology.trace,
    )
    client = H2Client(
        topology.sim, topology.client, topology.server.endpoint(443),
        trace=topology.trace,
    )
    return topology, server, client


def test_oversized_data_frame_rejected():
    topology, server, client = _stack()
    client.on_ready = lambda: None
    client.connect()
    topology.sim.run_until(2.0)
    connection = client.h2
    with pytest.raises(H2Error) as excinfo:
        connection.send_data(1, 20_000)  # > peer max_frame_size 16384
    assert excinfo.value.code is H2ErrorCode.FRAME_SIZE_ERROR


def test_goaway_received_flag():
    topology, server, client = _stack()
    client.on_ready = lambda: None
    client.connect()
    topology.sim.run_until(2.0)
    goaways = []
    client.h2.on_goaway = lambda last, code: goaways.append((last, code))
    server.connections[0].h2.send_goaway(H2ErrorCode.NO_ERROR)
    topology.sim.run_until(3.0)
    assert client.h2.goaway_received
    assert goaways and goaways[0][1] is H2ErrorCode.NO_ERROR


def test_priority_frame_updates_server_tree():
    topology, server, client = _stack(server_config=PRIORITY)
    def go():
        client.get("/a.bin")
        client.get("/b.bin")
        client.h2.send_priority(3, depends_on=1, weight=42)
    client.on_ready = go
    client.connect()
    topology.sim.run_until(5.0)
    tree = server.connections[0].h2.scheduler.tree
    assert tree.weight_of(3) == 42
    # RFC 7540: a dependency on a stream not (yet) in the tree falls
    # back to the root — the PRIORITY raced ahead of the responses.
    assert tree.parent_of(3) in (0, 1)


def test_priority_frame_after_responses_sets_parent():
    topology, server, client = _stack(server_config=PRIORITY)
    def go():
        client.get("/a.bin")
        client.get("/b.bin")
    client.on_ready = go
    client.connect()
    topology.sim.run_until(0.2)  # responses under way: streams in tree
    client.h2.send_priority(3, depends_on=1, weight=42)
    topology.sim.run_until(5.0)
    tree = server.connections[0].h2.scheduler.tree
    assert tree.parent_of(3) == 1


def test_client_counts_junk_data_after_reset():
    topology, server, client = _stack()
    handle_box = []
    def go():
        handle_box.append(client.get("/a.bin"))
    client.on_ready = go
    client.connect()
    sim = topology.sim
    sim.run_until(0.12)
    # Reset while the response is in flight: whatever lands afterwards
    # is junk the browser tolerates.
    client.cancel(handle_box[0].stream_id)
    sim.run_until(5.0)
    assert handle_box[0].reset
    assert client.junk_data_frames >= 0  # tolerated, never crashes


def test_request_priority_weight_reaches_server():
    topology, server, client = _stack(server_config=PRIORITY)
    client.on_ready = lambda: client.get("/a.bin", priority_weight=99)
    client.connect()
    topology.sim.run_until(5.0)
    # The HEADERS carried the priority; the server connection saw it.
    frames = [
        record
        for record in topology.trace.select(category="h2.frame.received")
        if record["frame_type"] == "HEADERS" and record.get("conn", "").startswith("h2-server")
    ]
    assert frames


def test_window_update_on_stream_zero_grows_connection_window():
    topology, server, client = _stack()
    client.on_ready = lambda: None
    client.connect()
    topology.sim.run_until(2.0)
    server_connection = server.connections[0].h2
    # The client granted its 12 MiB connection window at startup.
    assert server_connection.connection_send_window.available > 10_000_000
