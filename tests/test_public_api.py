"""Tests of the top-level public API surface."""

import ast
import importlib
from pathlib import Path

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


# -- what the benchmark suite calls ------------------------------------
#
# benchmarks/suite changes only together with its recorded baseline, so
# it can lag behind the package.  A name it imports, a keyword it passes
# or a positional call it makes must keep working until the suite moves;
# these tests make such a break fail here, not in a benchmark run.

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "suite"


def suite_imports():
    """(file, module, name) of every ``from repro… import name``."""
    found = []
    for path in sorted(SUITE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "repro":
                found.extend(
                    (path.name, node.module, alias.name)
                    for alias in node.names
                )
    return found


@pytest.mark.parametrize("source, module, name", suite_imports())
def test_suite_import_resolves(source, module, name):
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_run_campaign_ignores_the_suite_backend_keyword():
    # campaign-ckpt's reference check passes backend="fast".
    from repro.campaign.engine import CampaignConfig, run_campaign

    config = CampaignConfig(sessions=2000, shard_size=1000, seed=7000)
    assert run_campaign(config, workers=1, backend="fast").digest() == \
        run_campaign(config, workers=1).digest()


def test_shard_task_takes_its_config_positionally():
    # campaign-ckpt wraps ShardTask(config) in its profiling task.
    from repro.campaign.engine import CampaignConfig, ShardTask

    config = CampaignConfig(sessions=20, shard_size=10, seed=3)
    assert ShardTask(config)(1) == config.shard_task()(1)
