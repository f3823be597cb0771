"""Campaign engine: zipf population, columnar folds, kill/resume.

The three properties the ISSUE pins down:

* **workload determinism** — the same seed rebuilds the identical page
  catalog, page by page, in any process;
* **columnar fold associativity** — shard summaries are integer-valued
  and merge to bit-identical totals in any order and any grouping;
* **campaign bit-identity** — worker count, checkpointing, and a
  simulated kill/resume never change the merged output.
"""

import json
import random

import pytest

from repro.campaign import (
    AnalyticModel,
    CampaignConfig,
    CampaignResult,
    ColumnarSummary,
    ShardTask,
    checkpoint_path,
    merge_summaries,
    run_campaign,
)
from repro.campaign.engine import evaluate_page_analytic
from repro.experiments.executor import Checkpoint
from repro.web.workload import (
    PageSpec,
    PopulationConfig,
    PopulationWorkload,
    ZipfSampler,
)


# -- Heavy-tail population workload -------------------------------------


def test_population_same_seed_identical_catalog():
    first = PopulationWorkload(seed=11)
    second = PopulationWorkload(seed=11)
    for session in range(200):
        assert first.page_spec(session) == second.page_spec(session)


def test_population_different_seeds_differ():
    first = PopulationWorkload(seed=11)
    second = PopulationWorkload(seed=12)
    specs_a = [first.page_spec(s) for s in range(50)]
    specs_b = [second.page_spec(s) for s in range(50)]
    assert specs_a != specs_b


def test_population_specs_respect_config_bounds():
    config = PopulationConfig(min_objects=3, max_objects=40,
                              target_range=(5_000, 6_000))
    workload = PopulationWorkload(seed=3, config=config)
    for spec in workload.page_specs(0, 300):
        assert 3 <= spec.object_count <= 40
        assert 5_000 <= spec.target_size <= 6_000
        assert all(size >= config.min_object_bytes
                   for size in spec.object_sizes)
        # Rank-size law: sizes are emitted in (jittered) rank order, so
        # the head object dominates the tail object.
        if spec.object_count >= 8:
            assert spec.object_sizes[0] > spec.object_sizes[-1]


def test_population_count_distribution_is_heavy_tailed():
    workload = PopulationWorkload(seed=5)
    counts = [workload.page_spec(s).object_count for s in range(2_000)]
    low = workload.config.min_objects
    small = sum(1 for count in counts if count < low + 20)
    huge = sum(1 for count in counts if count > 70)
    assert small > huge  # mass concentrates at small pages
    assert huge > 0      # but the tail is populated


def test_page_spec_independent_of_generation_order():
    workload = PopulationWorkload(seed=9)
    late_first = workload.page_spec(150)
    early = workload.page_spec(3)
    fresh = PopulationWorkload(seed=9)
    assert fresh.page_spec(3) == early
    assert fresh.page_spec(150) == late_first


def test_zipf_sampler_bounds_and_skew():
    sampler = ZipfSampler(1, 100, 1.2)
    stream = random.Random(7)
    draws = [sampler.sample(stream) for _ in range(5_000)]
    assert min(draws) >= 1 and max(draws) <= 100
    assert draws.count(1) > draws.count(50)


def test_zipf_sampler_rejects_bad_support():
    with pytest.raises(ValueError):
        ZipfSampler(0, 10, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(5, 4, 1.0)


# -- Columnar summaries -------------------------------------------------


def _shard_summaries(shards=7, shard_size=60, seed=21):
    config = CampaignConfig(
        sessions=shards * shard_size, shard_size=shard_size, seed=seed
    )
    task = ShardTask(config)
    return [ColumnarSummary.from_json(task(shard)) for shard in range(shards)]


def test_columnar_merge_order_never_changes_result():
    summaries = _shard_summaries()
    reference = merge_summaries(summaries)
    rng = random.Random(0)
    for _ in range(5):
        shuffled = list(summaries)
        rng.shuffle(shuffled)
        merged = merge_summaries(
            ColumnarSummary.from_json(s.to_json()) for s in shuffled
        )
        assert merged.to_json() == reference.to_json()
        assert merged.digest() == reference.digest()


def test_columnar_merge_is_associative_over_groupings():
    a, b, c = _shard_summaries(shards=3)

    def clone(summary):
        return ColumnarSummary.from_json(summary.to_json())

    left = clone(a).merge(clone(b)).merge(clone(c))        # (a+b)+c
    right = clone(a).merge(clone(b).merge(clone(c)))       # a+(b+c)
    assert left.to_json() == right.to_json()


def test_columnar_fold_equals_merge_of_parts():
    config = CampaignConfig(sessions=120, shard_size=40, seed=33)
    whole = ColumnarSummary.from_json(
        ShardTask(CampaignConfig(sessions=120, shard_size=120, seed=33))(0)
    )
    parts = merge_summaries(
        ColumnarSummary.from_json(ShardTask(config)(shard))
        for shard in range(config.shard_count)
    )
    assert parts.to_json() == whole.to_json()


def test_columnar_json_roundtrip_exact():
    summary = _shard_summaries(shards=1)[0]
    encoded = json.dumps(summary.to_json(), sort_keys=True)
    decoded = ColumnarSummary.from_json(json.loads(encoded))
    assert decoded == summary
    assert decoded.digest() == summary.digest()


def test_columnar_rejects_foreign_payloads():
    summary = ColumnarSummary()
    payload = summary.to_json()
    payload["version"] = 99
    with pytest.raises(ValueError):
        ColumnarSummary.from_json(payload)
    payload = summary.to_json()
    payload["hists"]["objects_log2"] = [0]  # wrong width
    with pytest.raises(ValueError):
        ColumnarSummary.from_json(payload)


def test_columnar_derived_stats():
    summary = ColumnarSummary()
    summary.fold_session(
        objects=10, page_bytes=50_000, target_bytes=9_000,
        serialized=True, identified=True, confusers=0, match_error=12,
    )
    summary.fold_session(
        objects=30, page_bytes=150_000, target_bytes=9_000,
        serialized=False, identified=True, confusers=2, match_error=40,
    )
    assert summary.sessions == 2
    assert summary.rate("serialized") == 0.5
    assert summary.rate("succeeded") == 0.5
    assert summary.mean("objects") == 20.0
    assert summary.mins["objects"] == 10
    assert summary.maxs["page_bytes"] == 150_000
    assert sum(summary.hists["objects_log2"]) == 2


# -- Analytic evaluator -------------------------------------------------


def test_analytic_evaluation_deterministic_per_session():
    workload = PopulationWorkload(seed=17)
    model = AnalyticModel()
    spec = workload.page_spec(5)
    first = evaluate_page_analytic(
        spec, workload.session_rng(5).stream("analytic"), model
    )
    second = evaluate_page_analytic(
        spec, workload.session_rng(5).stream("analytic"), model
    )
    assert first == second


def test_analytic_identifies_unique_target_without_noise():
    model = AnalyticModel(record_miscount_rate=0.0, noise_bytes=0,
                          serialize_base=1.0, serialize_slope=0.0,
                          serialize_floor=1.0)
    spec = PageSpec(session=0, object_sizes=(100_000, 50_000, 25_000),
                    target_size=9_000)
    outcome = evaluate_page_analytic(spec, random.Random(1), model)
    assert outcome["identified"] is True
    assert outcome["serialized"] is True
    assert outcome["confusers"] == 0
    assert outcome["match_error"] == 0


def test_analytic_confuser_at_target_size_defeats_uniqueness():
    model = AnalyticModel(record_miscount_rate=0.0, noise_bytes=0)
    spec = PageSpec(session=0, object_sizes=(100_000, 9_000),
                    target_size=9_000)  # exact size collision
    outcome = evaluate_page_analytic(spec, random.Random(1), model)
    assert outcome["confusers"] == 1


def test_analytic_model_validation():
    with pytest.raises(ValueError):
        AnalyticModel(record_miscount_rate=1.5)
    with pytest.raises(ValueError):
        AnalyticModel(serialize_floor=0.9, serialize_base=0.5)


# -- Campaign engine ----------------------------------------------------


def test_campaign_config_validation_and_shards():
    with pytest.raises(ValueError):
        CampaignConfig(sessions=0)
    with pytest.raises(ValueError):
        CampaignConfig(mode="hyperdrive")
    config = CampaignConfig(sessions=250, shard_size=100)
    assert config.shard_count == 3
    assert list(config.shard_range(2)) == list(range(200, 250))
    assert list(config.shard_range(0)) == list(range(0, 100))
    assert config.digest() == CampaignConfig(sessions=250,
                                             shard_size=100).digest()
    assert config.digest() != CampaignConfig(sessions=251,
                                             shard_size=100).digest()


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_campaign_serial_matches_parallel(backend):
    config = CampaignConfig(sessions=600, shard_size=100, seed=19)
    serial = run_campaign(config, workers=1, backend=backend)
    parallel = run_campaign(config, workers=2, backend=backend)
    assert serial.digest() == parallel.digest()
    assert serial.to_json() == parallel.to_json()


def test_campaign_backends_bit_identical():
    # The vectorized backend must reproduce the scalar engine's bytes
    # exactly — same digest, same JSON — on a population large enough
    # to exercise miscount hits, ambiguous pages and zero-error ties.
    config = CampaignConfig(sessions=2_000, shard_size=250, seed=19)
    python = run_campaign(config, backend="python")
    fast = run_campaign(config, backend="fast")
    assert python.digest() == fast.digest()
    assert python.to_json() == fast.to_json()
    assert python.backend == "python" and fast.backend == "fast"
    # The backend tag is deliberately not part of the payload: reports
    # and checkpoints stay interchangeable between backends.
    assert "backend" not in python.to_json()


def test_campaign_shard_size_never_changes_totals():
    coarse = run_campaign(CampaignConfig(sessions=400, shard_size=400,
                                         seed=23))
    fine = run_campaign(CampaignConfig(sessions=400, shard_size=40,
                                       seed=23))
    assert coarse.summary.to_json() == fine.summary.to_json()


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_campaign_checkpoint_resume_bit_identical(tmp_path, backend):
    config = CampaignConfig(sessions=500, shard_size=50, seed=29)
    reference = run_campaign(config)

    # A full checkpointed run produces the reference bytes...
    checkpoint_dir = tmp_path / "checkpoints"
    complete = run_campaign(
        config, checkpoint_dir=str(checkpoint_dir), backend=backend
    )
    assert complete.digest() == reference.digest()

    # ...then simulate a kill after 3 shards by truncating the
    # checkpoint (resealed, as any kill between atomic flushes leaves
    # it), and resume: completed shards are not re-run, and the merged
    # output is bit-identical to the uninterrupted reference.
    path = checkpoint_path(config, str(checkpoint_dir))
    kept = Checkpoint.truncate(path, keep=3)
    assert kept == 3
    resumed = run_campaign(
        config, checkpoint_dir=str(checkpoint_dir), backend=backend
    )
    assert resumed.resumed_shards == 3
    assert resumed.digest() == reference.digest()
    assert resumed.to_json() == reference.to_json()


def test_campaign_checkpoint_files_isolated_per_config(tmp_path):
    first = CampaignConfig(sessions=100, shard_size=50, seed=1)
    second = CampaignConfig(sessions=100, shard_size=50, seed=2)
    run_campaign(first, checkpoint_dir=str(tmp_path))
    run_campaign(second, checkpoint_dir=str(tmp_path))
    assert checkpoint_path(first, str(tmp_path)) != \
        checkpoint_path(second, str(tmp_path))
    assert len(list(tmp_path.glob("campaign-*.json"))) == 2


def test_campaign_result_shape():
    config = CampaignConfig(sessions=200, shard_size=100, seed=41)
    result = run_campaign(config)
    assert isinstance(result, CampaignResult)
    assert result.summary.sessions == 200
    assert result.shards == 2
    payload = result.to_json()
    assert payload["campaign"]["sessions"] == 200
    assert payload["digest"] == result.digest()
    assert 0.0 <= payload["rates"]["succeeded"] <= 1.0
    text = result.render()
    assert "sessions" in text and "attack success" in text
    assert result.digest()[:16] in text


def test_campaign_full_mode_smoke():
    # Four packet-level sessions across two shards: the expensive path
    # must fold into the same columnar schema and stay deterministic.
    config = CampaignConfig(sessions=4, shard_size=2, seed=7, mode="full")
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.digest() == second.digest()
    assert first.summary.sessions == 4
    assert first.summary.sums["duration_us"] > 0
    assert first.summary.counts["serialized"] >= 1


@pytest.mark.parametrize("transport, digest", [
    ("tcp", "2b8c9926861e3f4ebacddcd29bbc3e4f12132e7ea6b20496472e222870b020c0"),
    ("quic", "a74ef0b63172757895d42f8341b921b4cf25d5493fc20ea3b68132fe616740f0"),
])
def test_campaign_full_mode_digest_pinned(transport, digest):
    # Packet-level sessions over both transports: any change to the
    # load path's wiring or draw order moves these digests.
    config = CampaignConfig(
        sessions=8, shard_size=4, mode="full", transport=transport
    )
    assert run_campaign(config, workers=1).digest() == digest
