"""Tests for the executor's fault tolerance.

Covers the indexed wrapping of worker exceptions (every failure names
its trial), the retry/timeout/crash-isolation semantics of supervised
dispatch, the worker pool's design (long-lived workers, a crash costing
only its own trial, no worker outliving the map), and checkpoint/resume.
All tasks are module-level dataclasses so they pickle across the spawn
boundary.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.executor import (
    Checkpoint,
    FaultTolerance,
    TrialError,
    TrialExecutionError,
    TrialExecutor,
    map_trials,
    set_flush_fault_hook,
)
from repro.simkernel.randomstream import RandomStreams


def _square(index):
    return index * index


def _seeded_draw(index):
    """A deterministic per-index result: what a seeded trial computes."""
    return RandomStreams(index).stream("task").random()


@dataclass(frozen=True)
class _Offset:
    base: int

    def __call__(self, index: int) -> int:
        return self.base + index


@dataclass(frozen=True)
class _FailOn:
    """Raises every time for one index."""

    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            raise ValueError(f"boom at {index}")
        return index * index


@dataclass(frozen=True)
class _FailOnce:
    """Raises on the first attempt for one index (marker on disk)."""

    marker_dir: str
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            marker = os.path.join(self.marker_dir, f"failed-{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                raise ValueError("first attempt fails")
        return index * index


@dataclass(frozen=True)
class _CrashOnce:
    """SIGKILLs its own worker on the first attempt for one index.

    Only meaningful on the worker pool — run in process it would kill
    the test process.
    """

    marker_dir: str
    bad: int

    def __call__(self, index: int) -> float:
        if index == self.bad:
            marker = os.path.join(self.marker_dir, f"crashed-{index}")
            if not os.path.exists(marker):
                with open(marker, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
        return _seeded_draw(index)


@dataclass(frozen=True)
class _CrashAlways:
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            os.kill(os.getpid(), signal.SIGKILL)
        return index * index


@dataclass(frozen=True)
class _Hang:
    bad: int

    def __call__(self, index: int) -> int:
        if index == self.bad:
            time.sleep(60)
        return index * index


def _worker_pid(index):
    return os.getpid()


@dataclass(frozen=True)
class _CountedCrash:
    """Counts each run of each index on disk; ``victim`` SIGKILLs its
    worker on its first run, once another trial is in flight."""

    marker_dir: str
    victim: int

    def __call__(self, index: int) -> int:
        path = os.path.join(self.marker_dir, f"runs-{index}")
        with open(path, "a") as handle:
            handle.write("x")
        if index == self.victim and os.path.getsize(path) == 1:
            deadline = time.monotonic() + 10
            while (
                len(os.listdir(self.marker_dir)) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.5)
        return index


# ---------------------------------------------------------------------------
# Satellite: worker exceptions carry the failing trial index
# ---------------------------------------------------------------------------

def test_serial_exception_carries_trial_index():
    with pytest.raises(TrialExecutionError) as excinfo:
        map_trials(5, _FailOn(bad=3))
    assert excinfo.value.trial == 3
    assert "ValueError" in excinfo.value.details
    assert "trial 3" in str(excinfo.value)


def test_process_exception_carries_trial_index():
    executor = TrialExecutor(workers=2)
    with pytest.raises(TrialExecutionError) as excinfo:
        executor.map_trials(5, _FailOn(bad=3))
    assert excinfo.value.trial == 3
    assert "ValueError" in excinfo.value.details


def test_trial_execution_error_pickles():
    error = TrialExecutionError(7, "ValueError: boom")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.trial == 7
    assert clone.details == "ValueError: boom"
    assert str(clone) == str(error)


# ---------------------------------------------------------------------------
# FaultTolerance policy
# ---------------------------------------------------------------------------

def test_fault_tolerance_validation():
    with pytest.raises(ValueError):
        FaultTolerance(timeout=0)
    with pytest.raises(ValueError):
        FaultTolerance(retries=-1)
    with pytest.raises(ValueError):
        FaultTolerance(checkpoint_every=0)


def test_trial_error_to_json():
    error = TrialError(trial=4, attempts=2, error="ValueError: x",
                       traceback="tb",
                       history=({"attempt": 1, "kind": "exception"},))
    assert error.to_json() == {
        "trial": 4, "attempts": 2, "error": "ValueError: x",
        "traceback": "tb", "kind": "exception",
        "history": [{"attempt": 1, "kind": "exception"}],
    }


def test_fault_tolerant_matches_plain_map():
    plain = map_trials(6, _square)
    tolerant = map_trials(6, _square, fault_tolerance=FaultTolerance())
    assert tolerant == plain


# ---------------------------------------------------------------------------
# Serial fallback: retries and error records, no preemption
# ---------------------------------------------------------------------------

def test_serial_retry_recovers_transient_failure(tmp_path):
    task = _FailOnce(marker_dir=str(tmp_path), bad=2)
    results = map_trials(4, task, fault_tolerance=FaultTolerance(retries=1))
    assert results == [0, 1, 4, 9]


def test_serial_exhausted_retries_yield_error_record(tmp_path):
    results = map_trials(
        4, _FailOn(bad=2), fault_tolerance=FaultTolerance(retries=1)
    )
    assert results[0] == 0 and results[1] == 1 and results[3] == 9
    error = results[2]
    assert isinstance(error, TrialError)
    assert error.trial == 2
    assert error.attempts == 2
    assert "ValueError" in error.error
    assert "boom at 2" in error.traceback


# ---------------------------------------------------------------------------
# Supervised dispatch: crash isolation, same-seed retry, timeout
# ---------------------------------------------------------------------------

def test_supervised_retry_reproduces_crashed_trial(tmp_path):
    """Property: a same-seed retry computes what the lost worker would
    have — the final results match an uncrashed run exactly."""
    task = _CrashOnce(marker_dir=str(tmp_path), bad=1)
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        4, task, fault_tolerance=FaultTolerance(retries=1)
    )
    assert results == [_seeded_draw(index) for index in range(4)]
    assert os.path.exists(os.path.join(str(tmp_path), "crashed-1"))


def test_supervised_crash_without_budget_yields_error():
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        [0, 1, 2], _CrashAlways(bad=1),
        fault_tolerance=FaultTolerance(retries=0),
    )
    assert results[0] == 0 and results[2] == 4
    error = results[1]
    assert isinstance(error, TrialError)
    assert error.trial == 1
    assert "crashed" in error.error
    assert "-9" in error.error  # SIGKILL exit code


def test_supervised_timeout_kills_hung_trial():
    executor = TrialExecutor(workers=2)
    start = time.monotonic()
    results = executor.map_trials(
        [0, 1], _Hang(bad=1),
        fault_tolerance=FaultTolerance(timeout=1.0, retries=0),
    )
    assert time.monotonic() - start < 30  # nowhere near the 60 s sleep
    assert results[0] == 0
    error = results[1]
    assert isinstance(error, TrialError)
    assert "timeout" in error.error


def test_supervised_preserves_order():
    executor = TrialExecutor(workers=2)
    results = executor.map_trials(
        6, _square, fault_tolerance=FaultTolerance()
    )
    assert results == [index * index for index in range(6)]


# ---------------------------------------------------------------------------
# Worker pool: long-lived workers, one pipe each
# ---------------------------------------------------------------------------

def test_unsupervised_crash_raises_instead_of_hanging():
    # Without a policy a SIGKILLed worker must still end the map with an
    # error naming the trial.  Run in a child interpreter so that a hang
    # fails the test at the timeout instead of stalling the suite.
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent("""
        from repro.experiments.executor import (
            TrialExecutionError, TrialExecutor,
        )
        from tests.test_executor_faults import _CrashAlways

        if __name__ == "__main__":
            try:
                TrialExecutor(workers=2).map_trials(4, _CrashAlways(bad=1))
            except TrialExecutionError as error:
                print(error.trial)
                print(error.details)
    """)
    path = os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=str(root),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    trial, details = completed.stdout.splitlines()
    assert trial == "1"
    assert "crashed" in details and "-9" in details


def test_pool_reuses_long_lived_workers():
    results = TrialExecutor(workers=2).map_trials(
        8, _worker_pid, fault_tolerance=FaultTolerance()
    )
    assert len(set(results)) <= 2
    assert os.getpid() not in results


def test_worker_kill_does_not_rerun_other_workers_trials(tmp_path):
    task = _CountedCrash(marker_dir=str(tmp_path), victim=1)
    results = TrialExecutor(workers=2).map_trials(
        4, task, fault_tolerance=FaultTolerance(retries=1)
    )
    assert results == [0, 1, 2, 3]
    runs = {
        index: (tmp_path / f"runs-{index}").read_text()
        for index in range(4)
    }
    assert runs == {0: "x", 1: "xx", 2: "x", 3: "x"}


def test_no_worker_outlives_map_trials():
    executor = TrialExecutor(workers=2)
    assert executor.map_trials(4, _square) == [0, 1, 4, 9]
    assert multiprocessing.active_children() == []
    crashed = executor.map_trials(
        3, _CrashAlways(bad=1), fault_tolerance=FaultTolerance(retries=0)
    )
    assert isinstance(crashed[1], TrialError)
    assert multiprocessing.active_children() == []
    timed_out = executor.map_trials(
        [0, 1], _Hang(bad=1),
        fault_tolerance=FaultTolerance(timeout=1.0, retries=0),
    )
    assert timed_out[1].kind == "timeout"
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

def test_checkpoint_resume_skips_completed_trials(tmp_path):
    path = str(tmp_path / "checkpoint.json")
    first = map_trials(
        4, _FailOn(bad=2),
        fault_tolerance=FaultTolerance(retries=0, checkpoint_path=path),
    )
    assert isinstance(first[2], TrialError)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == Checkpoint.VERSION
    assert payload["payload_sha256"]  # integrity seal embedded
    assert sorted(payload["results"]) == ["0", "1", "3"]  # no error persisted

    # Resume with a task returning *different* values: completed trials
    # come from the checkpoint, only the failed one is recomputed.
    second = map_trials(
        4, _Offset(base=100),
        fault_tolerance=FaultTolerance(retries=0, checkpoint_path=path),
    )
    assert second == [0, 1, 102, 9]


def test_checkpoint_quarantines_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"version": 99, "results": {}}')
    checkpoint = Checkpoint(str(path))
    assert len(checkpoint) == 0
    assert checkpoint.quarantined == str(path) + ".corrupt"
    assert "version" in checkpoint.quarantine_reason
    assert not path.exists()
    assert (tmp_path / "checkpoint.json.corrupt").exists()


def test_checkpoint_records_and_flushes_atomically(tmp_path):
    path = str(tmp_path / "checkpoint.json")
    checkpoint = Checkpoint(path)
    checkpoint.record(3, {"value": 1}, flush_every=1)
    reloaded = Checkpoint(path)
    assert 3 in reloaded
    assert reloaded.results[3] == {"value": 1}
    assert len(reloaded) == 1
    leftovers = [
        name for name in os.listdir(str(tmp_path))
        if name.startswith(".checkpoint-")
    ]
    assert leftovers == []  # temp file replaced, not left behind


@contextmanager
def _counted_checkpoint_writes():
    """Count checkpoint writes through the (non-raising) flush hook."""
    writes = []
    set_flush_fault_hook(lambda: writes.append(1))
    try:
        yield writes
    finally:
        set_flush_fault_hook(None)


@pytest.mark.parametrize("family", ["campaign", "infer"])
def test_checkpointed_run_writes_once_per_shard(tmp_path, family):
    # checkpoint_every=1 writes after every shard; the end of the map
    # owes nothing more, and a resume of the finished run owes nothing.
    from repro.campaign.engine import CampaignConfig, run_campaign
    from repro.infer.campaign import InferCampaignConfig

    if family == "campaign":
        config = CampaignConfig(sessions=400, shard_size=100, seed=3)
    else:
        config = InferCampaignConfig(sessions=4, shard_size=1, seed=3)
    with _counted_checkpoint_writes() as writes:
        first = run_campaign(config, workers=1, checkpoint_dir=str(tmp_path))
    assert len(writes) == config.shard_count == 4
    with _counted_checkpoint_writes() as writes:
        resumed = run_campaign(config, workers=1, checkpoint_dir=str(tmp_path))
    assert writes == []
    assert resumed.summary.digest() == first.summary.digest()


def test_checkpoint_without_config_digest_is_resealed(tmp_path):
    # A file written before configs sealed their digest: the resumed map
    # has no trial left to run, yet still seals the file once.
    path = str(tmp_path / "checkpoint.json")
    legacy = Checkpoint(path)
    for index in range(3):
        legacy.record(index, _square(index))
    policy = FaultTolerance(checkpoint_path=path, checkpoint_digest="abc123")
    with _counted_checkpoint_writes() as writes:
        assert map_trials(3, _square, fault_tolerance=policy) == [0, 1, 4]
    assert len(writes) == 1
    assert Checkpoint(path).config_digest == "abc123"
    with _counted_checkpoint_writes() as writes:
        map_trials(3, _square, fault_tolerance=policy)
    assert writes == []


def test_checkpoint_resume_is_deterministic_end_to_end(tmp_path):
    """Interrupted-and-resumed output equals the uninterrupted one."""
    uninterrupted = map_trials(
        5, _square, fault_tolerance=FaultTolerance()
    )
    path = str(tmp_path / "checkpoint.json")
    # Simulate an interrupted run: only trials 0-2 completed.
    partial = Checkpoint(path)
    for index in range(3):
        partial.record(index, _square(index))
    resumed = map_trials(
        5, _square,
        fault_tolerance=FaultTolerance(checkpoint_path=path),
    )
    assert resumed == uninterrupted
