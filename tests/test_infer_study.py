"""E19 and the infer campaign: determinism, folding, resume, frontier.

The determinism matrix for the frontier, in miniature: serial vs
parallel workers, python vs fast backend, split-vs-whole summary folds,
and checkpoint resume must all produce bit-identical JSON.  Plus the
two acceptance-criterion shapes: undefended, a statistical classifier
beats the exact-match baseline; and the defense ladder's byte overhead
is monotone in the actual study output.
"""

import json
import os
import pickle

import pytest

from repro.campaign.engine import checkpoint_path
from repro.experiments import infer_study
from repro.infer.campaign import (
    InferCampaignConfig,
    InferShardTask,
    run_infer_campaign,
)
from repro.infer.dataset import StudyDesign, evaluate_session
from repro.infer.summary import InferSummary

SMALL = StudyDesign(seed=2020, reps=2, max_objects=4)


def _study(trials=3, workers=None, design=SMALL):
    return infer_study.run(trials=trials, workers=workers, design=design)


# -- determinism ---------------------------------------------------------

def test_serial_and_parallel_runs_are_bit_identical():
    serial = _study(workers=1)
    parallel = _study(workers=4)
    assert serial.summary.to_json() == parallel.summary.to_json()
    assert serial.render() == parallel.render()
    assert serial.summary.digest() == parallel.summary.digest()


def test_fast_backend_is_bit_identical(monkeypatch):
    from repro.fastpath import BACKEND_ENV

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    python_run = _study()
    monkeypatch.setenv(BACKEND_ENV, "fast")
    fast_run = _study()
    assert fast_run.summary.to_json() == python_run.summary.to_json()
    assert fast_run.render() == python_run.render()


def test_sessions_are_independent_of_sweep_slicing():
    # Evaluating a session alone equals evaluating it inside a sweep:
    # every observation draws from its own named counter stream.
    alone = evaluate_session(2, SMALL)
    again = evaluate_session(2, SMALL)
    assert alone == again
    json.dumps(alone)  # plain-JSON result (checkpointable)


# -- summary folding -----------------------------------------------------

def test_fold_matches_merge_of_halves():
    results = [evaluate_session(session, SMALL) for session in range(4)]
    whole = InferSummary(SMALL.levels, SMALL.classifiers)
    whole.fold_all(results)
    left = InferSummary(SMALL.levels, SMALL.classifiers)
    right = InferSummary(SMALL.levels, SMALL.classifiers)
    left.fold_all(results[:2])
    right.fold_all(results[2:])
    left.merge(right)
    assert left.to_json() == whole.to_json()
    assert left.digest() == whole.digest()


def test_summary_json_roundtrip():
    summary = _study().summary
    clone = InferSummary.from_json(summary.to_json())
    assert clone.to_json() == summary.to_json()
    assert clone.digest() == summary.digest()


def test_merge_rejects_mismatched_axes():
    one = InferSummary(("off",), ("exact",))
    other = InferSummary(("off", "pad256"), ("exact",))
    with pytest.raises(ValueError):
        one.merge(other)


# -- acceptance shapes ---------------------------------------------------

def test_statistical_beats_exact_baseline_undefended():
    result = infer_study.run(trials=4, workers=1)
    off = result.design.levels[0]
    exact = result.accuracy_permille(off, "exact")
    best = max(
        result.accuracy_permille(off, name)
        for name in result.design.classifiers if name != "exact"
    )
    assert best > exact


def test_byte_overhead_is_monotone_across_the_ladder():
    result = _study()
    overheads = [result.byte_overhead_permille(name)
                 for name in result.design.levels]
    assert overheads == sorted(overheads)
    assert overheads[0] == 0  # "off" costs nothing


def test_render_mentions_the_frontier_and_footer():
    rendered = _study().render()
    assert "E19 / infer" in rendered
    assert "exact-match baseline" in rendered
    for name in SMALL.levels:
        assert name in rendered


# -- the campaign mode ---------------------------------------------------

CAMPAIGN = InferCampaignConfig(
    sessions=5, shard_size=2, reps=2, max_objects=4
)


def test_shard_task_is_picklable_and_pure():
    task = InferShardTask(CAMPAIGN)
    clone = pickle.loads(pickle.dumps(task))
    assert clone(1) == task(1)


def test_campaign_matches_study_on_same_sessions():
    campaign = run_infer_campaign(CAMPAIGN, workers=1)
    study = infer_study.run(
        trials=CAMPAIGN.sessions, workers=1, design=CAMPAIGN.design()
    )
    assert campaign.summary.to_json() == study.summary.to_json()


def test_campaign_is_shard_size_invariant():
    by_two = run_infer_campaign(CAMPAIGN, workers=2)
    import dataclasses

    by_five = run_infer_campaign(
        dataclasses.replace(CAMPAIGN, shard_size=5), workers=1
    )
    assert by_two.summary.to_json() == by_five.summary.to_json()


def test_campaign_checkpoint_resume_is_bit_identical(tmp_path):
    fresh = run_infer_campaign(CAMPAIGN, workers=1)
    first = run_infer_campaign(
        CAMPAIGN, workers=1, checkpoint_dir=str(tmp_path)
    )
    path = checkpoint_path(CAMPAIGN, str(tmp_path))
    assert os.path.exists(path)
    resumed = run_infer_campaign(
        CAMPAIGN, workers=1, checkpoint_dir=str(tmp_path)
    )
    assert resumed.resumed_shards == CAMPAIGN.shard_count
    assert first.to_json() == fresh.to_json()
    assert resumed.to_json() == fresh.to_json()
    # Resume history stays off the rendered frontier (stdout contract).
    assert resumed.render() == fresh.render()


@pytest.mark.parametrize("override", [
    {"classifiers": ("nope",)},
    {"reps": 0},
    {"max_objects": 1},
], ids=["classifiers", "reps", "max_objects"])
def test_campaign_config_validates_the_design(override):
    # A bad design must fail at construction, not in every shard.
    with pytest.raises(ValueError):
        InferCampaignConfig(sessions=4, shard_size=2, **override)


def test_campaign_config_digest_tracks_parameters():
    import dataclasses

    assert CAMPAIGN.digest() != dataclasses.replace(
        CAMPAIGN, seed=CAMPAIGN.seed + 1
    ).digest()
    assert len(CAMPAIGN.digest()) == 12
