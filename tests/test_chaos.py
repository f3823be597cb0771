"""The chaos harness: injectors and scenario machinery.

The expensive process-fault scenarios (worker-kill, stalled-shard) run
in the nightly ``slow`` job; the serial scenarios run in tier 1 — they
are the same code paths the ``repro verify`` chaos section exercises.
One cheap process fault also runs in tier 1: a worker SIGKILLed while
it floods its pipe with heartbeats.
"""

import errno
import os
import signal
import threading
from dataclasses import dataclass

import pytest

from repro.campaign import CampaignConfig, checkpoint_path, run_campaign
from repro.chaos import (
    QUICK_SCENARIOS,
    SCENARIOS,
    corrupt_byte,
    failing_checkpoint_writes,
    render_results,
    run_scenario,
    run_scenarios,
    truncate_bytes,
    verify_section,
)
from repro.experiments import executor
from repro.experiments.executor import (
    Checkpoint,
    FaultTolerance,
    TrialExecutor,
    heartbeat,
)
from repro.simkernel.randomstream import RandomStreams


def _seeded_draw(index):
    return RandomStreams(index).stream("task").random()


@dataclass(frozen=True)
class _KilledWhileBeating:
    """On its first run, ``victim`` heartbeats unthrottled until a timer
    SIGKILLs its worker, so the kill lands mid-beat on a busy pipe."""

    marker_dir: str
    victim: int

    def __call__(self, index: int) -> float:
        marker = os.path.join(self.marker_dir, "killed")
        if index == self.victim and not os.path.exists(marker):
            with open(marker, "w"):
                pass
            executor._HEARTBEAT_INTERVAL = 0
            threading.Timer(
                0.5, os.kill, (os.getpid(), signal.SIGKILL)
            ).start()
            while True:
                heartbeat()
        return _seeded_draw(index)


# ---------------------------------------------------------------------------
# Injectors
# ---------------------------------------------------------------------------

def test_corrupt_byte_flips_in_place(tmp_path):
    path = str(tmp_path / "blob")
    with open(path, "wb") as handle:
        handle.write(b"x" * 90)
    offset = corrupt_byte(path, seed=4)
    blob = open(path, "rb").read()
    assert len(blob) == 90
    assert blob[offset] == ord("x") ^ 0xFF
    assert blob.count(b"x") == 89


def test_corrupt_byte_rejects_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        corrupt_byte(str(path))


def test_truncate_bytes_tears_the_file(tmp_path):
    path = str(tmp_path / "blob")
    with open(path, "wb") as handle:
        handle.write(b"y" * 100)
    kept = truncate_bytes(path, fraction=0.6)
    assert kept == 60
    assert os.path.getsize(path) == 60
    with pytest.raises(ValueError):
        truncate_bytes(path, fraction=1.0)


def test_any_single_byte_flip_trips_the_integrity_seal(tmp_path):
    # The property corrupt_byte relies on: no single flipped byte can
    # survive the checkpoint's parse + sha + digest validation.
    path = str(tmp_path / "checkpoint.json")
    checkpoint = Checkpoint(path, config_digest="abc123")
    checkpoint.record(0, {"value": 1}, flush_every=1)
    corrupt_byte(path, seed=7)
    reloaded = Checkpoint(path, config_digest="abc123")
    assert len(reloaded) == 0
    assert reloaded.quarantined == path + ".corrupt"


def test_failing_checkpoint_writes_injects_and_clears(tmp_path):
    import repro.experiments.executor as executor_module

    path = str(tmp_path / "checkpoint.json")
    with failing_checkpoint_writes(failures=1) as faults:
        checkpoint = Checkpoint(path)
        checkpoint.record(0, {"value": 1}, flush_every=1)
        assert faults["raised"] == 1
        assert checkpoint.disabled
        assert "ENOSPC" in checkpoint.write_error or "28" in str(
            checkpoint.write_error
        )
        assert not os.path.exists(path)  # nothing half-written
    assert executor_module._flush_fault_hook is None  # hook cleared
    after = Checkpoint(path + "2")
    after.record(0, {"value": 1}, flush_every=1)
    assert not after.disabled  # writes work again outside the context


def test_failing_checkpoint_writes_custom_errno(tmp_path):
    with failing_checkpoint_writes(failures=1, error_code=errno.EIO):
        checkpoint = Checkpoint(str(tmp_path / "checkpoint.json"))
        checkpoint.record(0, {"value": 1}, flush_every=1)
    assert "Errno 5" in checkpoint.write_error or "I/O" in (
        checkpoint.write_error
    )


def test_enospc_mid_campaign_degrades_without_losing_the_digest(tmp_path):
    config = CampaignConfig(sessions=400, shard_size=100, seed=3)
    reference = run_campaign(config, workers=1).digest()
    with failing_checkpoint_writes(failures=2):
        result = run_campaign(config, workers=1,
                              checkpoint_dir=str(tmp_path))
    assert result.digest() == reference
    assert not result.partial
    # The file was never written; a later healthy run recomputes fully.
    assert not os.path.exists(checkpoint_path(config, str(tmp_path)))


# ---------------------------------------------------------------------------
# Scenario machinery
# ---------------------------------------------------------------------------

def test_registry_shape():
    assert set(QUICK_SCENARIOS) <= set(SCENARIOS)
    assert "worker-kill" in SCENARIOS and "deadline-expiry" in SCENARIOS
    # Process-fault scenarios are deliberately not in the quick subset.
    assert "worker-kill" not in QUICK_SCENARIOS
    assert "stalled-shard" not in QUICK_SCENARIOS


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="nosuch"):
        run_scenario("nosuch")


def test_deadline_expiry_scenario_passes(tmp_path):
    result = run_scenario("deadline-expiry", workdir=str(tmp_path))
    assert result.passed, result.detail
    assert result.mode == "partial"
    assert os.path.exists(
        os.path.join(str(tmp_path), "deadline-expiry", "manifest.json")
    )


@pytest.mark.parametrize("name", ["checkpoint-corrupt",
                                  "checkpoint-truncate",
                                  "checkpoint-enospc"])
def test_serial_checkpoint_scenarios_pass(tmp_path, name):
    result = run_scenario(name, workdir=str(tmp_path))
    assert result.passed, result.detail
    assert result.mode == "recovered"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["worker-kill", "stalled-shard"])
def test_process_fault_scenarios_pass(tmp_path, name):
    result = run_scenario(name, workdir=str(tmp_path))
    assert result.passed, result.detail
    assert result.mode == "recovered"


def test_sigkill_while_heartbeating_retries_only_the_victim(tmp_path):
    task = _KilledWhileBeating(marker_dir=str(tmp_path), victim=2)
    results = TrialExecutor(workers=2).map_trials(
        6, task,
        fault_tolerance=FaultTolerance(retries=1, heartbeat_timeout=30.0),
    )
    assert os.path.exists(os.path.join(str(tmp_path), "killed"))
    assert results == [_seeded_draw(index) for index in range(6)]


def test_scenario_failure_is_reported_not_raised(monkeypatch):
    # A scenario body blowing up must become a FAIL row, never an
    # unhandled traceback out of the harness.
    import repro.chaos.scenarios as scenarios_module

    spec = scenarios_module.SCENARIOS["deadline-expiry"]

    def explode(workdir):
        raise RuntimeError("scenario machinery broke")

    monkeypatch.setitem(
        scenarios_module.SCENARIOS, "deadline-expiry",
        scenarios_module.ScenarioSpec(
            spec.name, spec.description, spec.quick, explode
        ),
    )
    result = run_scenario("deadline-expiry")
    assert not result.passed
    assert result.mode == "error"
    assert "scenario machinery broke" in result.detail


def test_render_results_and_verify_section(tmp_path):
    results = run_scenarios(names=["deadline-expiry"],
                            workdir=str(tmp_path))
    table = render_results(results)
    assert "Chaos harness" in table
    assert "deadline-expiry" in table
    assert "1/1 passed" in table


@pytest.mark.slow
def test_verify_section_quick_profile():
    section = verify_section(quick=True)
    assert section.passed
    names = [check.name for check in section.checks]
    assert names == [f"chaos:{name}" for name in QUICK_SCENARIOS]
