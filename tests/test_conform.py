"""Unit tests for the ``repro verify`` conformance subsystem."""

import json
import os
from pathlib import Path

import pytest

from repro.conform import frames as conform_frames
from repro.conform import golden, matrix, vectors
from repro.conform.report import Section, VerifyReport
from repro.experiments import executor
from repro.experiments.executor import (
    CAPTURE_ENV,
    CHECKPOINT_DIR_ENV,
    Checkpoint,
    auto_fault_tolerance,
    capture_stdout,
    reset_auto_checkpoint_calls,
)


# --------------------------------------------------------------- report

def test_report_verdict_and_exit_codes():
    report = VerifyReport()
    section = Section("Layer")
    section.add("alpha", True, "ok")
    section.add("beta", False, "expected 3, got 4")
    report.sections.append(section)
    assert not report.passed
    assert report.exit_code == 1
    assert [check.name for check in report.failures()] == ["beta"]
    rendered = report.render()
    assert "VERDICT: FAIL — 1 check(s): beta" in rendered
    assert "[FAIL] beta" in rendered
    assert "expected 3, got 4" in rendered


def test_report_all_pass():
    report = VerifyReport()
    section = Section("Layer")
    section.add("alpha", True)
    report.sections.append(section)
    assert report.passed and report.exit_code == 0
    assert "VERDICT: PASS — all 1 checks" in report.render()


# -------------------------------------------------- conformance layers

def test_rfc7541_vectors_all_pass():
    section = vectors.run_checks()
    failed = [check for check in section.checks if not check.passed]
    assert failed == [], "\n" + section.render()


def test_frame_round_trip_checks_pass():
    section = conform_frames.run_checks(examples=25)
    failed = [check for check in section.checks if not check.passed]
    assert failed == [], "\n" + section.render()


# ------------------------------------------------------- golden layer

def test_select_experiments_unknown_name_raises():
    with pytest.raises(ValueError, match="nosuch"):
        golden.select_experiments(only=["fig1", "nosuch"])


def test_select_experiments_profiles():
    assert golden.select_experiments(quick=True) == list(golden.QUICK_SUBSET)
    assert golden.select_experiments() == list(golden.EXPERIMENTS)
    assert golden.select_experiments(only=["table1"]) == ["table1"]


def test_golden_fig1_matches_checked_in():
    captures, section = golden.run_checks(["fig1"])
    assert section.passed, "\n" + section.render()
    assert golden.digest(captures["fig1"]) == \
        golden.load_golden()["fig1"]["sha256"]


def test_golden_table1_matches_checked_in():
    captures, section = golden.run_checks(["table1"])
    assert section.passed, "\n" + section.render()
    assert golden.digest(captures["table1"]) == \
        golden.load_golden()["table1"]["sha256"]


def test_golden_infer_study_matches_checked_in():
    captures, section = golden.run_checks(["infer-study"])
    assert section.passed, "\n" + section.render()
    assert golden.digest(captures["infer-study"]) == \
        golden.load_golden()["infer-study"]["sha256"]


def test_infer_study_perturbation_fails_naming_experiment(monkeypatch):
    monkeypatch.setenv(golden.PERTURB_ENV, "infer-study")
    _, section = golden.run_checks(["infer-study"])
    assert not section.passed
    (failure,) = [check for check in section.checks if not check.passed]
    assert failure.name == "golden:infer-study"
    assert "drifted" in failure.detail


def test_single_byte_perturbation_fails_naming_experiment(monkeypatch):
    # The acceptance criterion: flip one byte of one experiment's
    # output (via the env-flag hook) and verify must fail with that
    # experiment named.
    monkeypatch.setenv(golden.PERTURB_ENV, "fig1")
    _, section = golden.run_checks(["fig1"])
    assert not section.passed
    (failure,) = [check for check in section.checks if not check.passed]
    assert failure.name == "golden:fig1"
    assert "drifted" in failure.detail
    assert "+++ current/fig1" in failure.detail  # the diff is shown


def test_update_golden_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_PATH", tmp_path / "golden.json")
    assert golden.load_golden() == {}
    captures, section = golden.run_checks(["fig1"], update=True)
    assert section.passed
    assert "recorded" in section.checks[0].detail
    entry = golden.load_golden()["fig1"]
    assert entry["sha256"] == golden.digest(captures["fig1"])
    assert entry["argv"] == golden.EXPERIMENTS["fig1"]
    # A fresh comparison run against the file just written passes.
    _, section = golden.run_checks(["fig1"])
    assert section.passed, "\n" + section.render()
    # Updating again reports "unchanged" and keeps the digest.
    _, section = golden.run_checks(["fig1"], update=True)
    assert "unchanged" in section.checks[0].detail


def test_missing_golden_entry_fails_with_instructions(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_PATH", tmp_path / "none.json")
    _, section = golden.run_checks(["fig1"])
    (failure,) = section.checks
    assert not failure.passed
    assert "--update-golden" in failure.detail


# ------------------------------------------------------- matrix layer

def test_first_divergence_pinpoints_line():
    detail = matrix._first_divergence("a\nb\nc", "a\nX\nc")
    assert detail == "first divergence at line 2: 'b' != 'X'"
    detail = matrix._first_divergence("a\nb", "a\nb\nc")
    assert "line counts differ: 2 (serial) vs 3" in detail


def test_truncate_checkpoint_keeps_first_half(tmp_path):
    from repro.experiments.executor import Checkpoint

    path = tmp_path / "ck.json"
    checkpoint = Checkpoint(str(path))
    for index in range(6):
        checkpoint.record(index, index * 10)
    checkpoint.flush()
    kept = matrix._truncate_checkpoint(path)
    assert kept == 3
    payload = json.loads(path.read_text())
    assert payload["results"] == {"0": 0, "1": 10, "2": 20}
    # The truncated file is re-sealed: a resume trusts it, no quarantine.
    reloaded = Checkpoint(str(path))
    assert len(reloaded) == 3
    assert reloaded.quarantined is None
    assert matrix._truncate_checkpoint(tmp_path / "missing.json") == 0


def test_matrix_quick_runs_single_cell():
    name, _ = matrix.QUICK_CELL
    captures, _ = golden.run_checks([name])
    section = matrix.run_checks([name], captures, quick=True)
    assert [check.name for check in section.checks] == \
        [f"matrix:{name}:workers-4"]
    assert section.passed, "\n" + section.render()


@pytest.mark.slow
def test_matrix_kill_resume_cell():
    captures, _ = golden.run_checks(["table1"])
    section = Section("matrix")
    matrix._resume_cell(section, "table1", captures["table1"])
    (check,) = section.checks
    assert check.passed, check.detail
    assert "resumed from" in check.detail


# ------------------------------------------------------ executor hooks

def test_capture_stdout_captures_and_restores(capsys):
    previous_env = os.environ.get(CAPTURE_ENV)
    with capture_stdout() as buffer:
        print("inside")
        assert os.environ.get(CAPTURE_ENV) == "1"
    print("outside")
    assert buffer.getvalue() == "inside\n"
    assert capsys.readouterr().out == "outside\n"
    assert os.environ.get(CAPTURE_ENV) == previous_env


def test_auto_fault_tolerance_disabled_without_env(monkeypatch):
    monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
    assert auto_fault_tolerance(len, [0, 1]) is None


def test_auto_fault_tolerance_stable_filenames(tmp_path, monkeypatch):
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))
    reset_auto_checkpoint_calls()
    first = auto_fault_tolerance(len, [0, 1])
    second = auto_fault_tolerance(len, [0, 1])
    assert first is not None and second is not None
    assert first.retries == 0
    assert Path(first.checkpoint_path).parent == tmp_path
    assert Path(first.checkpoint_path).name.startswith("call000-")
    # Same call sequence + same task ⇒ the resumed run finds the same
    # files; the call counter distinguishes repeated identical calls.
    assert second.checkpoint_path != first.checkpoint_path
    reset_auto_checkpoint_calls()
    replay = auto_fault_tolerance(len, [0, 1])
    assert replay.checkpoint_path == first.checkpoint_path
    different = auto_fault_tolerance(len, [0, 1, 2])
    assert Path(different.checkpoint_path).name.startswith("call001-")
    assert different.checkpoint_path != second.checkpoint_path


def test_checkpoint_round_trips_non_json_results(tmp_path):
    path = str(tmp_path / "ck.json")
    checkpoint = Checkpoint(path)
    checkpoint.record(0, {"plain": "json"})
    checkpoint.record(1, {1, 2, 3})  # not JSON-serializable → pickled
    reloaded = Checkpoint(path)
    assert reloaded.results == {0: {"plain": "json"}, 1: {1, 2, 3}}
    # The on-disk form of the pickled entry is the wrapper dict.
    payload = json.loads(Path(path).read_text())
    assert set(payload["results"]["1"]) == {"__pickled__"}


def test_map_trials_auto_checkpoints_when_env_set(tmp_path, monkeypatch):
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))
    reset_auto_checkpoint_calls()
    results = executor.map_trials(4, _square, workers=1)
    assert results == [0, 1, 4, 9]
    files = list(tmp_path.glob("call*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["results"] == {"0": 0, "1": 1, "2": 4, "3": 9}


def _square(index):
    return index * index
