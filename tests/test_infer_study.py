"""E19 and the infer campaign: determinism, folding, resume, frontier.

The determinism matrix for the frontier, in miniature: serial vs
parallel workers, split-vs-whole summary folds and checkpoint resume
must all produce bit-identical JSON.  Plus the
two acceptance-criterion shapes: undefended, a statistical classifier
beats the exact-match baseline; and the defense ladder's byte overhead
is monotone in the actual study output.
"""

import dataclasses
import json
import os
import pickle
from types import SimpleNamespace

import pytest

from repro.campaign.engine import checkpoint_path
from repro.experiments import infer_study
from repro.infer.campaign import (
    InferCampaignConfig,
    InferShardTask,
    run_infer_campaign,
)
from repro.infer.dataset import StudyDesign, evaluate_session, evaluate_sessions
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


def test_study_runs_one_bounded_shard_per_worker(monkeypatch):
    configs = []

    def fake_run_campaign(config, workers=None):
        configs.append(config)
        return SimpleNamespace(summary=config.empty_summary())

    monkeypatch.setattr(infer_study, "run_campaign", fake_run_campaign)
    _study(trials=7, workers=2)
    _study(trials=1_000, workers=1)
    assert [c.shard_size for c in configs] == [4, 250]
    assert all(c.design() == SMALL for c in configs)


def test_study_rejects_a_design_the_campaign_cannot_run():
    with pytest.raises(ValueError, match="InferCampaignConfig"):
        _study(design=dataclasses.replace(SMALL, chunk_bytes=1024))


def test_sessions_are_independent_of_sweep_slicing():
    # Evaluating a session alone equals evaluating it inside a sweep:
    # every observation draws from its own named counter stream.
    alone = evaluate_session(2, SMALL)
    again = evaluate_session(2, SMALL)
    assert alone == again
    json.dumps(alone)  # plain-JSON result (checkpointable)


@pytest.mark.parametrize("design", [
    StudyDesign(), InferCampaignConfig().design(),
], ids=["study", "campaign"])
@pytest.mark.parametrize("session", [0, 7, 31])
def test_level_entries_do_not_depend_on_the_ladder(design, session):
    # One session fits all levels as one stack; a level's entry must
    # not see the other levels in it, or their order.
    full = evaluate_session(session, design)
    ladders = [(name,) for name in design.levels]
    ladders += [design.levels[::-1], design.levels[-2::-2]]
    for levels in ladders:
        part = evaluate_session(
            session, dataclasses.replace(design, levels=levels)
        )
        assert part["objects"] == full["objects"]
        assert list(part["levels"]) == list(levels)
        for name in levels:
            assert part["levels"][name] == full["levels"][name]


@pytest.mark.parametrize("design", [
    InferCampaignConfig().design(),
    dataclasses.replace(InferCampaignConfig().design(), reps=3, max_objects=8),
], ids=["campaign", "reps3-objects8"])
def test_shard_program_equals_one_session_at_a_time(design):
    # A shard fits each class-count group as one stack; every session's
    # result must still be the one it gets alone.  The shard is out of
    # order and repeats a session; each group has several members.
    shard = [7, 0, 1, 2, 3, 10, 11, 7]
    results = evaluate_sessions(shard, design)
    assert len({result["objects"] for result in results}) >= 2  # >= 2 groups
    assert results == [evaluate_session(session, design) for session in shard]


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


@pytest.mark.parametrize("reps, max_objects, digest", [
    (3, 8, "fc939085ba03c939eb13250ea0c99ba1532954f6da483af1e63a538c7979ef60"),
    (2, 12, "bd2060affa0fd73cc0c1b3e07116a2e6a8d125ab0f95c2ab577ad7a79cd35529"),
])
def test_campaign_digest_pinned_at_eight_classes_and_more(
    reps, max_objects, digest
):
    # The CLI default (max_objects=6) never trains on 8 classes, where
    # numpy starts summing a class row with 8 partial sums; these
    # frontiers do, so a change that moves a prediction there shows.
    config = InferCampaignConfig(
        sessions=12, shard_size=6, reps=reps, max_objects=max_objects
    )
    assert run_infer_campaign(config, workers=1).summary.digest() == digest


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
