"""Campaign supervision: checkpoint integrity, degradation, manifests.

The contract under test: no matter what happens to a checkpoint file
or a shard, a supervised campaign either recovers to the bit-identical
digest of an uninterrupted run, or returns an explicitly-accounted
partial result — and in both cases leaves machine-readable evidence.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignError,
    ShardTask,
    build_manifest,
    checkpoint_path,
    render_shard_errors,
    run_campaign,
    validate_manifest,
    write_manifest,
)
from repro.experiments.executor import (
    Checkpoint,
    TrialError,
    retry_backoff,
)

from repro.infer.campaign import InferCampaignConfig, InferShardTask

CONFIG = CampaignConfig(sessions=600, shard_size=100, seed=5)
INFER = InferCampaignConfig(
    sessions=6, shard_size=2, seed=5, reps=2, max_objects=4
)
#: The runner's contract holds for every config it accepts, so the
#: supervision tests run on a campaign and on an infer config.
CONFIGS = {"campaign": CONFIG, "infer": INFER}


# ---------------------------------------------------------------------------
# Checkpoint integrity: the corruption matrix
# ---------------------------------------------------------------------------

def _checkpointed_digest(config, directory):
    """Run the reference config with a checkpoint; return its digest."""
    result = run_campaign(config, workers=1, checkpoint_dir=directory)
    return result.digest()


def _corrupt_truncated_bytes(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def _corrupt_invalid_json(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json at all")


def _corrupt_wrong_version(path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 99, "results": {}}, handle)


def _corrupt_foreign_digest(path):
    # A structurally valid, correctly-sealed checkpoint that belongs to
    # a *different* campaign config: resume must not adopt its results.
    foreign = Checkpoint(path + ".foreign", config_digest="feedfacecafe")
    foreign.record(0, {"counts": {"sessions": 100}})
    os.replace(path + ".foreign", path)


CORRUPTIONS = {
    "truncated-bytes": _corrupt_truncated_bytes,
    "invalid-json": _corrupt_invalid_json,
    "wrong-version": _corrupt_wrong_version,
    "foreign-config": _corrupt_foreign_digest,
}


# Campaign cases keep their bare corruption-kind ids.
@pytest.mark.parametrize(
    "engine, kind",
    [(engine, kind) for engine in CONFIGS for kind in sorted(CORRUPTIONS)],
    ids=[
        kind if engine == "campaign" else f"{engine}-{kind}"
        for engine in CONFIGS for kind in sorted(CORRUPTIONS)
    ],
)
def test_corrupted_checkpoint_quarantined_and_recomputed(
    tmp_path, engine, kind
):
    config = CONFIGS[engine]
    reference = run_campaign(config, workers=1).digest()
    assert _checkpointed_digest(config, str(tmp_path)) == reference
    path = checkpoint_path(config, str(tmp_path))
    CORRUPTIONS[kind](path)

    result = run_campaign(config, workers=1, checkpoint_dir=str(tmp_path))
    sidecar = path + ".corrupt"
    assert os.path.exists(sidecar)  # evidence preserved, not deleted
    assert result.quarantined == [sidecar]
    assert result.resumed_shards == 0  # nothing trusted from the wreck
    assert result.digest() == reference  # clean recompute, bit-identical
    assert not result.partial


# Single-case tests loop over CONFIGS instead of taking a pytest
# parameter, which keeps their test ids stable.

def test_intact_checkpoint_still_resumes(tmp_path):
    for engine, config in CONFIGS.items():
        directory = str(tmp_path / engine)
        reference = _checkpointed_digest(config, directory)
        result = run_campaign(config, workers=1, checkpoint_dir=directory)
        assert result.resumed_shards == config.shard_count, engine
        assert result.quarantined == [], engine
        assert result.digest() == reference, engine


def test_resealed_truncation_resumes_the_prefix(tmp_path):
    # Checkpoint.truncate models a kill *between* atomic flushes: the
    # surviving prefix is sealed and must be trusted on resume.
    for engine, config in CONFIGS.items():
        directory = str(tmp_path / engine)
        reference = _checkpointed_digest(config, directory)
        path = checkpoint_path(config, directory)
        kept = Checkpoint.truncate(path, keep=2)
        assert kept == 2, engine
        result = run_campaign(config, workers=1, checkpoint_dir=directory)
        assert result.resumed_shards == 2, engine
        assert result.quarantined == [], engine
        assert result.digest() == reference, engine


def test_checkpoint_flush_fsyncs_file_and_directory(tmp_path, monkeypatch):
    # Crash durability: the temp file must be fsynced before the rename
    # and the directory after it, else a power cut can lose the rename.
    import repro.experiments.executor as executor_module

    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(executor_module.os, "fsync", counting_fsync)
    checkpoint = Checkpoint(str(tmp_path / "checkpoint.json"))
    checkpoint.record(0, {"value": 1}, flush_every=1)
    assert len(synced) >= 2  # one for the payload fd, one for the dir fd


# ---------------------------------------------------------------------------
# Deterministic retry backoff
# ---------------------------------------------------------------------------

def test_retry_backoff_is_deterministic(monkeypatch):
    monkeypatch.delenv("REPRO_BACKOFF", raising=False)
    first = retry_backoff(0.1, "digest", index=3, attempt=2)
    again = retry_backoff(0.1, "digest", index=3, attempt=2)
    assert first == again
    assert first > 0
    # Different (seed, index, attempt) tuples jitter differently.
    assert retry_backoff(0.1, "other", 3, 2) != first
    assert retry_backoff(0.1, "digest", 4, 2) != first
    assert retry_backoff(0.1, "digest", 3, 3) != first


def test_retry_backoff_grows_exponentially(monkeypatch):
    monkeypatch.delenv("REPRO_BACKOFF", raising=False)
    # jitter is in [0.5, 1.5) of base * 2^(attempt-1): attempt 4 always
    # exceeds attempt 1's maximum.
    assert retry_backoff(0.1, "d", 0, 4) > retry_backoff(0.1, "d", 0, 1)


def test_retry_backoff_env_disables_waiting(monkeypatch):
    monkeypatch.setenv("REPRO_BACKOFF", "0")
    assert retry_backoff(10.0, "digest", 0, 5) == 0.0


def test_retry_backoff_env_overrides_base(monkeypatch):
    monkeypatch.setenv("REPRO_BACKOFF", "2.0")
    scaled = retry_backoff(0.0, "digest", 1, 1)
    assert 1.0 <= scaled < 3.0  # 2.0 * (0.5 + jitter)
    monkeypatch.setenv("REPRO_BACKOFF", "banana")
    with pytest.raises(ValueError):
        retry_backoff(1.0, "digest", 1, 1)


# ---------------------------------------------------------------------------
# Graceful degradation and coverage accounting
# ---------------------------------------------------------------------------

def test_deadline_without_allow_partial_raises(tmp_path):
    for engine, config in CONFIGS.items():
        manifest_path = str(tmp_path / f"{engine}.json")
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(config, workers=1, deadline=0.0,
                         failure_manifest=manifest_path)
        error = excinfo.value
        assert len(error.errors) == config.shard_count, engine
        assert error.manifest_path == manifest_path, engine
        assert "failure manifest" in str(error), engine
        with open(manifest_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        validate_manifest(payload)
        assert payload["status"] == "failed", engine


def test_allow_partial_returns_coverage_accounting():
    for engine, config in CONFIGS.items():
        result = run_campaign(config, workers=1, deadline=0.0,
                              allow_partial=True)
        assert result.partial, engine
        assert result.failed_shards == [], engine
        assert len(result.skipped_shards) == config.shard_count, engine
        assert result.sessions_covered == 0, engine
        coverage = result.coverage()
        assert coverage["completed_shards"] == 0, engine
        assert coverage["error_kinds"] == ["deadline"], engine
        assert "coverage" in result.to_json(), engine
        assert "coverage (PARTIAL)" in result.render(), engine


def test_full_coverage_json_and_render_carry_no_degraded_fields():
    for engine, config in CONFIGS.items():
        result = run_campaign(config, workers=1)
        assert not result.partial, engine
        assert "coverage" not in result.to_json(), engine
        assert "PARTIAL" not in result.render(), engine


def test_deadline_skips_are_not_persisted(tmp_path):
    # A deadline-skipped shard must stay recomputable: the checkpoint
    # holds only real results, so a later unconstrained resume finishes.
    for engine, config in CONFIGS.items():
        directory = str(tmp_path / engine)
        reference = run_campaign(config, workers=1).digest()
        partial = run_campaign(config, workers=1, deadline=0.0,
                               allow_partial=True, checkpoint_dir=directory)
        assert partial.sessions_covered == 0, engine
        resumed = run_campaign(config, workers=1, checkpoint_dir=directory)
        assert not resumed.partial, engine
        assert resumed.digest() == reference, engine


@dataclass(frozen=True)
class _FailingShardTask:
    """Computes every shard for real except ``victim``, which raises."""

    task: Callable[[int], Dict[str, Any]]
    victim: int

    def __call__(self, shard):
        if shard == self.victim:
            raise RuntimeError(f"shard {shard} exploded")
        return self.task(shard)


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["unsupervised", "checkpointed"])
@pytest.mark.parametrize("engine", sorted(CONFIGS))
def test_failing_shard_task_raises_campaign_error(tmp_path, engine,
                                                  checkpointed):
    # Unsupervised, the failure must still surface as a CampaignError
    # naming the shard (one attempt), never as a raw executor error;
    # checkpointed, it is retried first and the good shards persist.
    config = CONFIGS[engine]
    real = ShardTask(config) if engine == "campaign" else InferShardTask(config)
    task = _FailingShardTask(real, victim=1)
    checkpoint_dir = str(tmp_path) if checkpointed else None
    with pytest.raises(CampaignError, match="shard.s. failed") as excinfo:
        run_campaign(config, workers=1, retries=1, shard_task=task,
                     checkpoint_dir=checkpoint_dir)
    (error,) = excinfo.value.errors
    assert error.trial == 1
    assert error.kind == "exception"
    assert error.attempts == (2 if checkpointed else 1)
    assert "shard 1 exploded" in error.error
    if checkpointed:
        saved = Checkpoint(checkpoint_path(config, str(tmp_path)))
        assert sorted(saved.results) == [
            shard for shard in range(config.shard_count) if shard != 1
        ]


# ---------------------------------------------------------------------------
# Failure manifest schema
# ---------------------------------------------------------------------------

def _sample_errors():
    return [
        TrialError(trial=2, attempts=2, error="ValueError: boom",
                   traceback="tb", kind="exception",
                   history=({"attempt": 1, "kind": "exception"},)),
        TrialError(trial=4, attempts=0, error="deadline: exhausted",
                   traceback="", kind="deadline"),
    ]


def test_build_manifest_validates_and_accounts():
    manifest = build_manifest(CONFIG, _sample_errors(), status="partial",
                              quarantined=["x.corrupt"], workers=2,
                              resumed_shards=1, elapsed_s=1.23456)
    validate_manifest(manifest)  # must not raise
    assert manifest["coverage"]["completed_shards"] == CONFIG.shard_count - 2
    assert manifest["coverage"]["failed_shards"] == 1
    assert manifest["coverage"]["skipped_shards"] == 1
    assert manifest["quarantined_checkpoints"] == ["x.corrupt"]
    assert manifest["execution"]["elapsed_s"] == 1.235
    shard_record = manifest["shards"][0]
    assert shard_record["shard"] == 2
    assert shard_record["sessions"] == [200, 300]
    assert shard_record["history"] == [{"attempt": 1, "kind": "exception"}]


def test_write_manifest_round_trips(tmp_path):
    path = str(tmp_path / "nested" / "manifest.json")
    manifest = build_manifest(CONFIG, _sample_errors(), status="partial")
    write_manifest(path, manifest)
    assert json.loads(open(path, encoding="utf-8").read()) == manifest
    assert not os.path.exists(path + ".tmp")


@pytest.mark.parametrize("mutate, defect", [
    (lambda m: m.pop("coverage"), "missing keys"),
    (lambda m: m.update(version=99), "version"),
    (lambda m: m.update(schema="bogus/v9"), "schema"),
    (lambda m: m.update(status="meh"), "status"),
    (lambda m: m["coverage"].update(completed_shards=0), "account"),
    (lambda m: m["shards"][0].pop("history"), "missing"),
    (lambda m: m["shards"][0].update(kind="gremlins"), "kind"),
    (lambda m: m.update(status="complete"), "complete"),
])
def test_validate_manifest_rejects_malformed(mutate, defect):
    manifest = build_manifest(CONFIG, _sample_errors(), status="partial")
    mutate(manifest)
    with pytest.raises(ValueError, match=defect):
        validate_manifest(manifest)


def test_validate_manifest_rejects_empty_partial():
    manifest = build_manifest(CONFIG, [], status="partial")
    with pytest.raises(ValueError, match="no shard records"):
        validate_manifest(manifest)


def test_render_shard_errors_table():
    table = render_shard_errors(CONFIG, _sample_errors())
    assert "Campaign shard failures (2)" in table
    assert "200-299" in table  # shard 2's session span
    assert "exception" in table and "deadline" in table
