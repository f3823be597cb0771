"""Tests for the parallel trial executor and picklable summaries.

The load-bearing property is the determinism contract: any experiment
run with ``workers=N`` must produce byte-identical rendered tables to
the serial run.  Parallel legs here use 2 spawn workers on miniature
experiment configurations to keep the suite fast.
"""

import pickle
from dataclasses import dataclass

import pytest

from repro.core.adversary import AdversaryConfig
from repro.experiments import fig6, table1
from repro.experiments.executor import (
    WORKERS_ENV,
    TrialExecutor,
    map_trials,
    resolve_workers,
)
from repro.experiments.harness import (
    TrialConfig,
    TrialSummary,
    summarize_trial,
)
from repro.web.isidewith import HTML_OBJECT_ID
from repro.web.workload import VolunteerWorkload


def _square(index):
    return index * index


@dataclass(frozen=True)
class _Offset:
    base: int

    def __call__(self, index: int) -> int:
        return self.base + index


# ---------------------------------------------------------------------------
# Worker resolution
# ---------------------------------------------------------------------------

def test_resolve_workers_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == 1


def test_resolve_workers_reads_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) == 3


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(2) == 2


def test_resolve_workers_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers(-4)


def test_resolve_workers_rejects_non_integer_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "garbage")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        resolve_workers(None)


def test_cli_rejects_bad_worker_count_cleanly(capsys):
    from repro import cli

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["table1", "--trials", "1", "--workers", "0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "worker count must be >= 1" in captured.err


# ---------------------------------------------------------------------------
# Mapping semantics
# ---------------------------------------------------------------------------

def test_serial_map_preserves_order():
    assert map_trials(5, _square) == [0, 1, 4, 9, 16]


def test_process_map_preserves_order():
    executor = TrialExecutor(workers=2)
    assert executor.map_trials(8, _square) == [i * i for i in range(8)]


def test_map_accepts_explicit_indices():
    executor = TrialExecutor(workers=2)
    assert executor.map_trials(range(3, 7), _Offset(10)) == [13, 14, 15, 16]


def test_map_empty_input():
    assert TrialExecutor(workers=2).map_trials(0, _square) == []


def test_process_map_with_callable_dataclass():
    assert TrialExecutor(workers=2).map_trials(3, _Offset(100)) == [100, 101, 102]


# ---------------------------------------------------------------------------
# TrialSummary picklability
# ---------------------------------------------------------------------------

def test_trial_summary_pickle_round_trip():
    workload = VolunteerWorkload(seed=7)
    summary = summarize_trial(
        0, workload, TrialConfig(adversary=AdversaryConfig())
    )
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.trial == summary.trial
    assert clone.completed == summary.completed
    assert clone.duration == summary.duration
    assert clone.object_degrees == summary.object_degrees
    assert clone.inter_get_gaps == summary.inter_get_gaps
    assert clone.trace_categories == summary.trace_categories
    assert clone.min_degree(HTML_OBJECT_ID) == summary.min_degree(HTML_OBJECT_ID)
    assert (
        clone.analysis.sequence_prediction
        == summary.analysis.sequence_prediction
    )
    assert (
        clone.analysis.single_object[HTML_OBJECT_ID].success
        == summary.analysis.single_object[HTML_OBJECT_ID].success
    )


def test_trial_summary_without_analysis_pickles():
    workload = VolunteerWorkload(seed=7)
    summary = summarize_trial(0, workload, TrialConfig(), analyze=False)
    assert summary.analysis is None
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.analysis is None
    assert clone.get_requests == summary.get_requests


# ---------------------------------------------------------------------------
# End-to-end determinism: serial vs process on real experiments
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_table1_identical_across_worker_counts():
    kwargs = dict(trials=3, seed=7, delays=(0.0, 0.050))
    serial = table1.run(workers=1, **kwargs)
    parallel = table1.run(workers=2, **kwargs)
    assert serial.render() == parallel.render()
    assert [row.retransmissions for row in serial.rows_data] == [
        row.retransmissions for row in parallel.rows_data
    ]


@pytest.mark.slow
def test_fig6_identical_across_worker_counts():
    kwargs = dict(trials=2, seed=7, drop_rates=(0.8,))
    serial = fig6.run(workers=1, **kwargs)
    parallel = fig6.run(workers=2, **kwargs)
    assert serial.render() == parallel.render()
    serial_row, parallel_row = serial.rows_data[0], parallel.rows_data[0]
    assert serial_row.resets_observed == parallel_row.resets_observed
    assert serial_row.successes == parallel_row.successes


def test_workers_env_drives_experiments(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    from_env = table1.run(trials=2, seed=7, delays=(0.050,))
    monkeypatch.delenv(WORKERS_ENV)
    serial = table1.run(trials=2, seed=7, delays=(0.050,))
    assert from_env.render() == serial.render()


# ---------------------------------------------------------------------------
# Table I zero-baseline fallback (satellite)
# ---------------------------------------------------------------------------

def test_table1_zero_baseline_renders_dash():
    import math

    from repro.experiments.table1 import JitterRow, Table1Result

    result = Table1Result()
    result.rows_data.append(JitterRow(delay=0.0, trials=5, retransmissions=0))
    result.rows_data.append(JitterRow(delay=0.050, trials=5, retransmissions=4))
    row = result.rows_data[1]
    assert math.isinf(row.retransmission_increase_pct(baseline=0))
    rendered_rows = result.rows()
    assert rendered_rows[1][2] == "—"
    # A zero-retransmission row against the zero baseline is just +0%.
    assert rendered_rows[0][2] == "+0%"


def test_table1_nonzero_baseline_keeps_percentages():
    from repro.experiments.table1 import JitterRow, Table1Result

    result = Table1Result()
    result.rows_data.append(JitterRow(delay=0.0, trials=5, retransmissions=3))
    result.rows_data.append(JitterRow(delay=0.050, trials=5, retransmissions=9))
    rendered_rows = result.rows()
    assert rendered_rows[0][2] == "+0%"
    assert rendered_rows[1][2] == "+200%"
