"""Tests of the top-level public API surface."""

import pytest

import repro
from repro import quick_attack
from tests.test_import_hygiene import run_fresh


def test_version_and_exports():
    assert repro.__version__ == "1.0.0"
    for name in repro.__all__:
        assert hasattr(repro, name), name


#: Each runs in a fresh interpreter: the test process has imported
#: everything already, which would hide a wrong name → module entry in
#: the lazy root.
FRESH_API_SCRIPTS = {
    "all-resolve": """
import repro
for name in repro.__all__:
    getattr(repro, name)
""",
    "star-import": """
from repro import *
import repro
assert all(name in globals() for name in repro.__all__)
""",
    "unknown-attribute": """
import repro
try:
    repro.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("unknown attribute resolved")
""",
    "readme-imports": """
from repro import quick_attack
from repro import run_trial, TrialConfig, AdversaryConfig, VolunteerWorkload
from repro.netsim import FaultSchedule, GilbertElliottLoss, flaps
""",
}


@pytest.mark.parametrize(
    "script", FRESH_API_SCRIPTS.values(), ids=FRESH_API_SCRIPTS.keys()
)
def test_lazy_root_in_fresh_interpreter(script):
    completed = run_fresh(script)
    assert completed.returncode == 0, completed.stderr


def test_quick_attack_returns_analysis():
    result = quick_attack(trial=0, seed=7)
    assert len(result.sequence_truth) == 8
    assert result.sequence_prediction
    assert "result-html" in result.single_object
    assert result.single_object["result-html"].success


def test_quick_attack_custom_config():
    from repro import AdversaryConfig

    result = quick_attack(
        trial=1, seed=7,
        adversary=AdversaryConfig(enable_escalation=False),
    )
    assert len(result.sequence_truth) == 8


def test_tls_handshake_survives_handshake_loss():
    """SYN/handshake-era loss retries until established."""
    from repro.netsim.link import LinkConfig
    from repro.netsim.topology import build_adversary_path
    from repro.tcp.connection import TCPConnection, TCPState
    from repro.tcp.listener import TCPListener
    from repro.tls.session import TLSRole, TLSSession

    topology = build_adversary_path(
        seed=17,
        server_link_config=LinkConfig(propagation_delay=0.01, loss_rate=0.25),
    )
    sim = topology.sim
    sessions = []
    TCPListener(
        sim, topology.server, 443,
        lambda conn: sessions.append(TLSSession(conn, TLSRole.SERVER)),
    )
    tcp = TCPConnection(sim, topology.client, 50_000,
                        topology.server.endpoint(443))
    client = TLSSession(tcp, TLSRole.CLIENT)
    tcp.connect()
    sim.run_until(60.0)
    assert tcp.state is TCPState.ESTABLISHED
    assert client.handshake_complete


def test_server_response_headers_realistic():
    from repro.h2.server import H2Server, ResourceSpec
    from repro.netsim.topology import build_adversary_path

    topology = build_adversary_path(seed=18)
    server = H2Server(topology.sim, topology.server, 443, lambda p: None)
    headers = dict(server.response_headers(ResourceSpec("/x", 1234, "text/css")))
    assert headers[":status"] == "200"
    assert headers["content-length"] == "1234"
    assert headers["content-type"] == "text/css"
    assert "server" in headers and "date" in headers


def test_priority_scheduler_flush_clears_credits():
    from repro.h2.frames import DataFrame
    from repro.h2.mux import PriorityScheduler

    scheduler = PriorityScheduler()
    scheduler.enqueue(1, DataFrame(stream_id=1, data_bytes=10))
    scheduler.next_frame()
    scheduler.enqueue(1, DataFrame(stream_id=1, data_bytes=10))
    scheduler.flush_stream(1)
    assert 1 not in scheduler._credits
    assert scheduler.pending_frames == 0
