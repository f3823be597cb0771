"""Tests for the robustness study (fault-intensity sweep)."""

import json

import pytest

from repro.experiments.robustness_study import (
    INTENSITIES,
    OBJECTS_PER_TRIAL,
    QUICK_INTENSITIES,
    IntensityRow,
    RobustnessResult,
    RobustnessTrial,
    noise_schedule,
    run,
)
from repro.netsim.faults import GilbertElliottLoss, Outage


def test_noise_schedule_zero_is_clean():
    assert noise_schedule(0.0) is None
    assert noise_schedule(-1.0) is None


def test_noise_schedule_rejects_overdrive():
    with pytest.raises(ValueError):
        noise_schedule(1.5)


def test_noise_schedule_scales_with_intensity():
    mild = noise_schedule(0.25)
    severe = noise_schedule(1.0)
    assert mild is not None and severe is not None
    # Flaps only join the mix at intensity >= 0.5.
    assert not any(isinstance(i, Outage) for i in mild.impairments)
    assert any(isinstance(i, Outage) for i in severe.impairments)
    assert len(severe) > len(mild)

    def burstiness(schedule):
        ge = next(
            i for i in schedule.impairments
            if isinstance(i, GilbertElliottLoss)
        )
        return ge.mean_bad / ge.mean_good

    assert burstiness(severe) > burstiness(mild)


@pytest.mark.parametrize("level", [1.5, -0.5, float("nan")])
def test_run_rejects_intensity_outside_unit_interval(level):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        run(trials=1, intensities=(0.0, level), workers=1)


def test_sweep_constants():
    assert INTENSITIES[0] == 0.0 and INTENSITIES[-1] == 1.0
    assert set(QUICK_INTENSITIES) <= set(INTENSITIES)
    assert OBJECTS_PER_TRIAL == 9


def test_trial_task_returns_json_safe_dict():
    record = RobustnessTrial(seed=7, intensity=0.0)(0)
    clone = json.loads(json.dumps(record))
    assert clone == record
    assert record["trial"] == 0
    assert record["intensity"] == 0.0
    assert record["completed"] is True
    assert record["aborted"] is False
    assert 0 <= record["object_successes"] <= OBJECTS_PER_TRIAL
    assert record["fault_drops"] == 0  # clean links at intensity 0


@pytest.mark.slow
def test_trial_task_is_deterministic():
    task = RobustnessTrial(seed=7, intensity=0.5, horizon=15.0)
    assert task(1) == task(1)


def test_faulted_trial_records_fault_drops():
    record = RobustnessTrial(seed=7, intensity=1.0, horizon=15.0)(0)
    assert record["fault_drops"] > 0


def test_intensity_row_aggregation():
    row = IntensityRow(intensity=0.5)
    row.add({
        "object_successes": 9, "html_success": True, "sequence_correct": 9,
        "completed": True, "aborted": False, "retries": 0, "fault_drops": 3,
    })
    row.add({
        "object_successes": 0, "html_success": False, "sequence_correct": 0,
        "completed": False, "aborted": True, "retries": 2, "fault_drops": 40,
    })
    assert row.trials == 2
    assert row.success_pct == pytest.approx(50.0)
    assert row.html_success_pct == pytest.approx(50.0)
    assert row.broken == 1
    assert row.aborted == 1
    assert row.retries == 2
    assert row.fault_drops == 43
    payload = row.to_json()
    assert payload["intensity"] == 0.5
    assert payload["success_pct"] == 50.0


def test_monotone_story_tolerates_small_noise():
    result = RobustnessResult()
    for intensity, pct in ((0.0, 90.0), (0.5, 93.0), (1.0, 40.0)):
        row = IntensityRow(intensity=intensity)
        row.trials = 1
        row.object_successes = int(round(pct / 100 * OBJECTS_PER_TRIAL))
        result.rows_data.append(row)
    # +3% between adjacent levels is within the 5-point tolerance.
    successes = [row.success_pct for row in result.rows_data]
    assert successes[1] <= successes[0] + 5.0
    assert result.monotone_story

    result.rows_data[1].object_successes = OBJECTS_PER_TRIAL  # 100% > 90+5
    assert not result.monotone_story


@pytest.mark.slow
def test_run_tiny_sweep_renders_and_serializes():
    result = run(trials=1, seed=7, intensities=(0.0,), workers=1)
    assert len(result.rows_data) == 1
    row = result.rows_data[0]
    assert row.trials == 1
    assert row.errors == 0
    rendered = result.render()
    assert "Robustness study" in rendered
    assert "fault intensity" in rendered
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["study"] == "robustness"
    assert payload["trials"] == 1
    assert len(payload["rows"]) == 1
