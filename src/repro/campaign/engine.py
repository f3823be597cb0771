"""The campaign engine: shard → worker → trial streaming execution.

A *campaign* runs 10⁵–10⁷ seeded sessions of the paper's attack over a
synthetic page population (:class:`~repro.web.workload.PopulationWorkload`)
and reports population-scale attack statistics.  The execution hierarchy:

* the campaign is split into fixed-size **shards** of consecutive
  session indices;
* shards are mapped over **workers** by the existing
  :class:`~repro.experiments.executor.TrialExecutor` (long-lived spawn
  workers fed one shard at a time, crash isolation, shard-level
  retry);
* inside a shard, **trials** (sessions) run one at a time and fold
  immediately into a :class:`~repro.campaign.columnar.ColumnarSummary`
  — no per-trial object outlives its shard, so a worker's memory is
  O(1) in the session count and the parent's is O(shards).

Checkpoint/resume rides the executor's JSON
:class:`~repro.experiments.executor.Checkpoint`: each completed shard's
columnar summary (plain integers) streams to disk, and a re-run of the
same campaign — the checkpoint file name is derived from the campaign
config — skips completed shards and merges to a bit-identical result.

:func:`run_campaign` is the repository's one sharded runner.  It drives
any config that mixes in :class:`ShardedConfig` — :class:`CampaignConfig`
here, :class:`~repro.infer.campaign.InferCampaignConfig` for the
size-inference frontier — so supervision, checkpoints, retry backoff,
resume and quarantine accounting, partial coverage,
:class:`CampaignError` and the failure manifest exist once.  A config
contributes only its shard fold, its summary type and the bodies of its
report.

Two session engines, one per mode:

* ``analytic`` (default) — evaluates the §V size-identification attack
  directly on the page spec with the shared framing model
  (:func:`repro.core.predictor.expected_wire_payload`), a seeded
  estimator-noise model, and a calibrated Bernoulli for the
  serialization phase.  Microseconds per session; this is what makes a
  10⁵–10⁷ session campaign tractable on CI-class hardware.
* ``full`` — materialises each spec into a servable website and runs
  the complete packet-level attacked load (topology, TCP or QUIC,
  HTTP/2, adversary) through the harness's one load path, exactly like
  the E12 generalization study.  About 0.17 s per session per worker;
  used for small campaigns and for calibrating the analytic model's
  serialization rate.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.columnar import ColumnarSummary, merge_summaries
from repro.core.predictor import (
    DEFAULT_CHUNK_BYTES,
    RECORD_OVERHEAD,
    expected_wire_payload,
)
from repro.experiments.executor import (
    FaultTolerance,
    TrialError,
    TrialExecutionError,
    TrialExecutor,
    heartbeat,
)
from repro.experiments.report import format_table
from repro.web.workload import PageSpec, PopulationConfig, PopulationWorkload

#: Session engines accepted by :class:`CampaignConfig`.
MODES = ("analytic", "full")


@dataclass(frozen=True)
class AnalyticModel:
    """Knobs of the analytic (closed-form) session evaluator.

    Identification is evaluated *exactly* — the adversary's framing
    model, tolerance window and nearest-match rule are the real
    :class:`~repro.core.predictor.SizePredictor` logic applied to the
    page's ground-truth sizes.  Two stochastic components stand in for
    the packet-level machinery, both drawn from the session's seeded
    substream:

    * estimator noise — the observed target payload is the expected
      wire payload perturbed by a TLS-record miscount
      (±``RECORD_OVERHEAD`` with probability ``record_miscount_rate``)
      plus uniform byte noise in ``[-noise_bytes, +noise_bytes]``;
    * serialization success — a Bernoulli whose rate falls linearly
      with page object count, calibrated against the full-simulation
      E12 generalization study (busier pages give the drop window more
      chances to miss).

    Attributes:
        tolerance_abs / tolerance_rel: the predictor's match window.
        chunk_bytes: server DATA chunking granularity.
        record_miscount_rate: probability the estimator over- or
            under-counts one TLS record (split evenly between ±1).
        noise_bytes: half-width of the uniform byte noise.
        serialize_base: serialization success rate of a minimal page.
        serialize_slope: success-rate decay per embedded object.
        serialize_floor: lower bound of the serialization rate.
    """

    tolerance_abs: int = 350
    tolerance_rel: float = 0.05
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    record_miscount_rate: float = 0.2
    noise_bytes: int = 48
    serialize_base: float = 0.99
    serialize_slope: float = 0.003
    serialize_floor: float = 0.60

    def __post_init__(self) -> None:
        if not 0 <= self.record_miscount_rate <= 1:
            raise ValueError("record_miscount_rate must be in [0, 1]")
        if self.noise_bytes < 0:
            raise ValueError("noise_bytes must be non-negative")
        if not 0 <= self.serialize_floor <= self.serialize_base <= 1:
            raise ValueError(
                "need 0 <= serialize_floor <= serialize_base <= 1"
            )

    def serialize_rate(self, object_count: int) -> float:
        """Serialization success probability for a page of this size."""
        return max(
            self.serialize_floor,
            self.serialize_base - self.serialize_slope * object_count,
        )


class ShardedConfig:
    """What :func:`run_campaign` needs of a config, geometry written once.

    Mixed into frozen dataclasses with ``sessions``, ``shard_size`` and
    ``seed`` fields.  Shard geometry and the digest live here; each
    config adds its engine:

    * ``checkpoint_prefix`` — the checkpoint file-name prefix;
    * ``summary_type`` — the shard summary class, with ``from_json``,
      an in-place ``merge`` and ``digest``;
    * ``shard_task()`` — a picklable task mapping a shard index to its
      summary's JSON;
    * ``result_json(result)`` / ``render_result(result)`` — the bodies
      of :meth:`CampaignResult.to_json` and :meth:`CampaignResult.render`;
    * ``empty_summary()`` when ``summary_type()`` cannot build the
      zero-session summary unaided.
    """

    def _check_geometry(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")

    @property
    def shard_count(self) -> int:
        return -(-self.sessions // self.shard_size)

    def shard_range(self, shard: int) -> range:
        """Session indices of one shard."""
        start = shard * self.shard_size
        return range(start, min(start + self.shard_size, self.sessions))

    def digest(self) -> str:
        """Stable digest of the config — the checkpoint file identity.

        Config dataclasses hold only ints/floats/strings/tuples, whose
        reprs are deterministic across processes and runs.
        """
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()[:12]

    def empty_summary(self):
        """The merge identity: a summary of zero sessions."""
        return self.summary_type()


@dataclass(frozen=True)
class CampaignConfig(ShardedConfig):
    """Parameters of one campaign run (picklable, fully deterministic).

    Attributes:
        sessions: total seeded sessions.
        shard_size: consecutive sessions per shard; peak memory and
            checkpoint granularity are both O(``sessions/shard_size``).
        seed: population master seed.
        mode: session engine (``analytic`` or ``full``).
        population: heavy-tail page population knobs.
        model: analytic evaluator knobs (ignored in ``full`` mode).
        horizon: full-mode simulated-time budget per session.
        transport: transport under the full-mode packet stack.  The
            analytic model's serialization rate is calibrated against
            TCP head-of-line blocking, so ``analytic`` mode only
            accepts ``tcp``; the field participates in :meth:`digest`,
            keeping checkpoints from different transports apart.
    """

    sessions: int = 100_000
    shard_size: int = 2_000
    seed: int = 7
    mode: str = "analytic"
    population: PopulationConfig = field(default_factory=PopulationConfig)
    model: AnalyticModel = field(default_factory=AnalyticModel)
    horizon: float = 40.0
    transport: str = "tcp"

    checkpoint_prefix = "campaign"
    summary_type = ColumnarSummary

    def __post_init__(self) -> None:
        from repro.transport import TRANSPORTS

        self._check_geometry()
        if self.mode not in MODES:
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; expected one of {MODES}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"expected one of {TRANSPORTS}"
            )
        if self.mode == "analytic" and self.transport != "tcp":
            raise ValueError(
                "analytic mode models TCP serialization; use mode='full' "
                f"for transport {self.transport!r}"
            )

    def shard_task(self) -> "ShardTask":
        return ShardTask(self)

    def result_json(self, result: "CampaignResult") -> Dict[str, Any]:
        summary = result.summary
        return {
            "campaign": {
                "sessions": self.sessions,
                "shard_size": self.shard_size,
                "shards": result.shards,
                "seed": self.seed,
                "mode": self.mode,
                "config_digest": self.digest(),
            },
            "summary": summary.to_json(),
            "digest": summary.digest(),
            "rates": {
                "serialized": round(summary.rate("serialized"), 6),
                "identified": round(summary.rate("identified"), 6),
                "succeeded": round(summary.rate("succeeded"), 6),
                "ambiguous": round(summary.rate("ambiguous"), 6),
            },
        }

    def render_result(self, result: "CampaignResult") -> str:
        summary = result.summary
        rows = [
            ["sessions", f"{summary.sessions}"],
            ["shards", f"{result.shards} × {self.shard_size}"],
            ["mode", self.mode],
            ["population seed", f"{self.seed}"],
            ["objects/page (mean)", f"{summary.mean('objects'):.1f}"],
            [
                "objects/page (min–max)",
                f"{summary.mins.get('objects', 0)}–"
                f"{summary.maxs.get('objects', 0)}",
            ],
            ["page weight (mean)", f"{summary.mean('page_bytes'):,.0f} B"],
            ["target serialized", f"{100.0 * summary.rate('serialized'):.1f}%"],
            ["target identified", f"{100.0 * summary.rate('identified'):.1f}%"],
            ["attack success", f"{100.0 * summary.rate('succeeded'):.1f}%"],
            ["ambiguous pages", f"{100.0 * summary.rate('ambiguous'):.1f}%"],
            ["summary digest", summary.digest()[:16]],
        ]
        rows.extend(result.coverage_rows())
        return format_table(
            ["campaign", "value"], rows,
            title=(
                "Campaign — population-scale attack statistics "
                "(streaming columnar fold)"
            ),
        )


# ---------------------------------------------------------------------------
# Session evaluation
# ---------------------------------------------------------------------------


def evaluate_page_analytic(
    spec: PageSpec, stream, model: AnalyticModel
) -> Dict[str, Any]:
    """Closed-form evaluation of one session; returns fold kwargs.

    Walks the page inventory once: the observed target payload is
    nearest-matched against every object's expected wire payload under
    the predictor's tolerance rule (ties break toward the earlier
    candidate, target first — the same first-wins rule as
    ``SizePredictor.classify`` with a deterministic pool order).
    """
    chunk = model.chunk_bytes
    expected_target = expected_wire_payload(spec.target_size, chunk)

    # Estimator noise: a possible TLS record miscount plus byte jitter.
    miscount = 0
    if stream.random() < model.record_miscount_rate:
        miscount = 1 if stream.random() < 0.5 else -1
    observed = (
        expected_target
        + miscount * RECORD_OVERHEAD
        + stream.randint(-model.noise_bytes, model.noise_bytes)
    )

    tolerance_abs = model.tolerance_abs
    tolerance_rel = model.tolerance_rel
    best_error: Optional[int] = None
    best_is_target = False
    confusers = 0
    # Candidate order: the target, then embedded objects in rank order.
    for position, size in enumerate((spec.target_size,) + spec.object_sizes):
        expected = expected_wire_payload(size, chunk)
        error = abs(observed - expected)
        if error > max(tolerance_abs, tolerance_rel * expected):
            continue
        if position > 0:
            confusers += 1
        if best_error is None or error < best_error:
            best_error = error
            best_is_target = position == 0
    identified = best_is_target
    serialized = stream.random() < model.serialize_rate(spec.object_count)
    return {
        "objects": spec.object_count,
        "page_bytes": spec.page_bytes,
        "target_bytes": spec.target_size,
        "serialized": serialized,
        "identified": identified,
        "confusers": confusers,
        "match_error": best_error if identified else 0,
        "broken": False,
        "duration_us": 0,
    }


def evaluate_page_full(
    spec: PageSpec,
    rng,
    model: AnalyticModel,
    horizon: float = 40.0,
    transport: str = "tcp",
) -> Dict[str, Any]:
    """Packet-level evaluation of one session; returns fold kwargs.

    Materialises the spec into a servable site and runs the attacked
    load through :func:`repro.experiments.harness.run_load` — the E12
    generalization trial shape: the trigger on the target's GET and a
    400 ms escalated spacing — so a profiled campaign reports the
    load's phases and counters.  The target is scored like E12 (see
    :meth:`~repro.experiments.harness.TrialResult.score_target`) with
    the model's predictor knobs.  ``broken`` is the browser giving up,
    not a load cut at the horizon.  Imports are local so analytic
    campaigns never touch the simulator.
    """
    from repro.core.adversary import AdversaryConfig
    from repro.core.predictor import SizePredictor
    from repro.experiments.harness import (
        TrialConfig,
        collector_paused,
        run_load,
    )
    from repro.web.generator import generate_site_from_spec

    site = generate_site_from_spec(rng, spec)
    target_position = site.schedule.index_of(site.target_object_id) + 1
    predictor = SizePredictor(
        site.website.size_map(),
        chunk_bytes=model.chunk_bytes,
        tolerance_abs=model.tolerance_abs,
        tolerance_rel=model.tolerance_rel,
    )
    with collector_paused(), run_load(
        site,
        rng,
        TrialConfig(
            adversary=AdversaryConfig(
                trigger_get_index=target_position,
                escalated_jitter=0.400,
            ),
            horizon=horizon,
            transport=transport,
        ),
        trial=spec.session,
    ) as result:
        serialized, match = result.score_target(
            site.target_object_id, predictor
        )
        broken = result.browser.broken
        duration = result.duration

    # Tolerance-window crowding is a property of the inventory itself.
    expected_target = predictor.expected_for(site.target_object_id)
    confusers = 0
    for object_id in site.website.size_map():
        if object_id == site.target_object_id:
            continue
        expected = predictor.expected_for(object_id)
        budget = max(
            model.tolerance_abs, model.tolerance_rel * expected
        )
        if abs(expected_target - expected) <= budget:
            confusers += 1

    return {
        "objects": spec.object_count,
        "page_bytes": spec.page_bytes,
        "target_bytes": spec.target_size,
        "serialized": serialized,
        "identified": match is not None,
        "confusers": confusers,
        "match_error": match.error if match is not None else 0,
        "broken": broken,
        "duration_us": round(duration * 1_000_000),
    }


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """Picklable worker task: run one shard, return its columnar JSON.

    The returned value is the summary's plain-integer JSON dict, which
    the executor's checkpoint persists verbatim — so a resumed campaign
    reads back exactly the bytes a completed shard produced.  Each
    session runs through :func:`evaluate_page_analytic` or
    :func:`evaluate_page_full`, per the config's mode, and folds at
    once.
    """

    config: CampaignConfig

    def __call__(self, shard: int) -> Dict[str, Any]:
        config = self.config
        workload = PopulationWorkload(
            seed=config.seed, config=config.population
        )
        span = config.shard_range(shard)
        heartbeat()  # shard started (no-op outside supervised workers)
        summary = ColumnarSummary()
        full = config.mode == "full"
        for session in span:
            heartbeat()  # per-session progress beat (throttled)
            spec = workload.page_spec(session)
            if full:
                outcome = evaluate_page_full(
                    spec,
                    workload.session_rng(session),
                    config.model,
                    horizon=config.horizon,
                    transport=config.transport,
                )
            else:
                outcome = evaluate_page_analytic(
                    spec, workload.analytic_stream(session), config.model
                )
            summary.fold_session(**outcome)
            # Nothing from this session survives: spec, rng and outcome
            # are dropped here; only the columnar fold remains.
        return summary.to_json()


class CampaignError(RuntimeError):
    """A shard exhausted its retries; the merged total would be wrong.

    Raised only when ``allow_partial`` is off.  ``errors`` carries the
    structured per-shard records (kind, attempts, history) and
    ``manifest_path`` names the failure manifest, when one was written,
    so callers can point operators at the full accounting.
    """

    def __init__(
        self,
        errors: List[TrialError],
        manifest_path: Optional[str] = None,
    ) -> None:
        shards = ", ".join(str(error.trial) for error in errors)
        message = f"{len(errors)} shard(s) failed after retries: {shards}"
        if manifest_path:
            message += f" (failure manifest: {manifest_path})"
        super().__init__(message)
        self.errors = errors
        self.manifest_path = manifest_path


@dataclass
class CampaignResult:
    """Merged output of a sharded run plus run metadata.

    One result type serves every :class:`ShardedConfig`; the config
    supplies the bodies of :meth:`to_json` and :meth:`render`.  A result
    is *partial* when ``errors`` is non-empty (only possible with
    ``allow_partial=True``): the summary then covers exactly the
    completed shards, and the coverage accounting — completed vs failed
    vs deadline-skipped shards, sessions covered — is part of the JSON
    and the rendered report.  A full-coverage result serializes
    byte-for-byte as before, so goldens never see the degraded fields.
    """

    config: ShardedConfig
    summary: Any
    shards: int
    workers: int
    resumed_shards: int = 0
    #: Shards that did not complete (empty on a full-coverage run).
    errors: List[TrialError] = field(default_factory=list)
    #: Checkpoint files quarantined on resume (``.corrupt`` sidecars).
    quarantined: List[str] = field(default_factory=list)
    #: Failure-manifest path, when one was written.
    manifest_path: Optional[str] = None

    def digest(self) -> str:
        """Digest of the merged summary — the bit-identity handle."""
        return self.summary.digest()

    @property
    def partial(self) -> bool:
        """Whether coverage is degraded (some shards did not complete)."""
        return bool(self.errors)

    @property
    def failed_shards(self) -> List[TrialError]:
        return [e for e in self.errors if e.kind != "deadline"]

    @property
    def skipped_shards(self) -> List[TrialError]:
        return [e for e in self.errors if e.kind == "deadline"]

    @property
    def sessions_covered(self) -> int:
        missing = sum(
            len(self.config.shard_range(e.trial)) for e in self.errors
        )
        return self.config.sessions - missing

    def coverage(self) -> Dict[str, Any]:
        """The coverage accounting block (stable, deterministic)."""
        return {
            "completed_shards": self.shards - len(self.errors),
            "failed_shards": len(self.failed_shards),
            "skipped_shards": len(self.skipped_shards),
            "sessions_total": self.config.sessions,
            "sessions_covered": self.sessions_covered,
            "error_kinds": sorted(
                {e.kind for e in self.errors}
            ),
            "shards": sorted(e.trial for e in self.errors),
        }

    def coverage_rows(self) -> List[List[str]]:
        """Report rows accounting for a partial result (none otherwise)."""
        if not self.partial:
            return []
        covered = self.sessions_covered
        sessions = self.config.sessions
        return [
            [
                "coverage (PARTIAL)",
                f"{covered}/{sessions} sessions "
                f"({100.0 * covered / sessions:.1f}%)",
            ],
            [
                "failed shards",
                ", ".join(str(e.trial) for e in self.failed_shards) or "—",
            ],
            [
                "skipped shards (deadline)",
                ", ".join(str(e.trial) for e in self.skipped_shards) or "—",
            ],
        ]

    def to_json(self) -> Dict[str, Any]:
        """Deterministic JSON (no wall-clock state; safe to diff).

        The ``coverage`` block appears only on a partial result, so a
        clean default-path run's bytes are unchanged.
        """
        payload = self.config.result_json(self)
        if self.partial:
            payload["coverage"] = self.coverage()
        return payload

    def render(self) -> str:
        """The report (deterministic stdout).

        Configs place :meth:`coverage_rows` in their report, so only a
        partial result shows coverage.
        """
        return self.config.render_result(self)


def checkpoint_path(config: ShardedConfig, checkpoint_dir: str) -> str:
    """The run's shard-checkpoint file inside ``checkpoint_dir``.

    Named ``<checkpoint_prefix>-<config digest>.json``, so re-running
    the same config resumes its own file and a different config never
    collides.
    """
    return os.path.join(
        checkpoint_dir, f"{config.checkpoint_prefix}-{config.digest()}.json"
    )


#: Default base seconds of the deterministic retry backoff between
#: same-seed shard retries (``REPRO_BACKOFF`` overrides; 0 disables).
DEFAULT_BACKOFF_BASE = 0.05


def run_campaign(
    config: ShardedConfig,
    workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    retries: int = 1,
    backend: Optional[str] = None,
    allow_partial: bool = False,
    deadline: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    failure_manifest: Optional[str] = None,
    shard_task: Optional[Callable[[int], Dict[str, Any]]] = None,
) -> CampaignResult:
    """Run (or resume) a sharded config and merge its shards.

    Supervision is on only when asked for — by ``checkpoint_dir``,
    ``allow_partial``, ``deadline``, ``heartbeat_timeout`` or
    ``failure_manifest``.  Either way the shards run on the same
    executor: in process, or on up to ``workers`` long-lived spawn
    workers.  A supervised run retries failed shards and records
    structured per-shard errors.  An unsupervised run gives each shard
    one attempt, and the first failure — an exception or a crashed
    worker — stops the run with a :class:`CampaignError`.

    Args:
        config: what to run — a :class:`CampaignConfig`, an
            :class:`~repro.infer.campaign.InferCampaignConfig`, or any
            other :class:`ShardedConfig`.
        workers: worker processes for shard execution (argument →
            ``REPRO_WORKERS`` → 1, like every experiment).
        checkpoint_dir: when set, completed shard summaries stream into
            a JSON checkpoint there (:func:`checkpoint_path`) and a
            re-run with the same config resumes from it; the merged
            output is bit-identical whether or not the run was
            interrupted.  A corrupted, truncated or foreign checkpoint
            found on resume is quarantined to a ``.corrupt`` sidecar
            and its shards recomputed cleanly.
        retries: same-seed retries per failed shard (supervised runs
            only).
        backend: accepted and ignored: each mode has one engine.  The
            keyword stays only because the benchmark suite's
            campaign-ckpt reference check
            (``benchmarks/suite/workloads.py``) still passes
            ``backend="fast"``; ROADMAP item 6 removes the keyword
            together with that call.
        allow_partial: instead of raising :class:`CampaignError` when
            shards exhaust their retries, return a partial
            :class:`CampaignResult` with explicit coverage accounting.
        deadline: wall-clock budget in seconds for the whole run;
            shards unfinished at expiry are recorded as skipped
            (``kind="deadline"``), never persisted, so a later resume
            completes them.
        heartbeat_timeout: hung-shard watchdog — a supervised worker
            silent for longer than this is killed and retried.
        failure_manifest: when set, a machine-readable JSON manifest
            (see :mod:`repro.campaign.supervisor`) is written there on
            every outcome — complete, partial or failed — with
            per-shard attempt history and quarantine records.
        shard_task: chaos-injection hook — replaces
            ``config.shard_task()``; must compute bit-identical
            summaries (the chaos harness wraps the real task with fault
            triggers).

    Returns:
        The merged :class:`CampaignResult` (partial only with
        ``allow_partial=True``).

    Raises:
        CampaignError: when a shard failed (after its retries, when
            supervised) and ``allow_partial`` is off.
    """
    from repro.campaign import supervisor

    started = time.perf_counter()
    executor = TrialExecutor(workers=workers)
    task = shard_task if shard_task is not None else config.shard_task()
    fault_tolerance = None
    if (
        checkpoint_dir or allow_partial or deadline is not None
        or heartbeat_timeout is not None or failure_manifest
    ):
        path = None
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = checkpoint_path(config, checkpoint_dir)
        fault_tolerance = FaultTolerance(
            retries=retries,
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_digest=config.digest(),
            deadline=deadline,
            heartbeat_timeout=heartbeat_timeout,
            backoff_base=DEFAULT_BACKOFF_BASE,
            backoff_seed=config.digest(),
        )
    try:
        outcomes = executor.map_trials(
            config.shard_count, task, fault_tolerance=fault_tolerance
        )
    except TrialExecutionError as error:
        # Unsupervised: the first failing shard aborts the map after one
        # attempt; report it like any other shard failure.
        raise CampaignError([
            TrialError(
                trial=error.trial,
                attempts=1,
                error=error.details,
                traceback=traceback.format_exc(),
            )
        ]) from error
    errors = [item for item in outcomes if isinstance(item, TrialError)]
    checkpoint = executor.last_checkpoint
    resumed = checkpoint.loaded if checkpoint is not None else 0
    quarantined = (
        [checkpoint.quarantined]
        if checkpoint is not None and checkpoint.quarantined else []
    )

    manifest_path = None
    if failure_manifest:
        status = (
            "complete" if not errors
            else ("partial" if allow_partial else "failed")
        )
        manifest = supervisor.build_manifest(
            config, errors,
            status=status,
            quarantined=quarantined,
            checkpoint_write_error=(
                checkpoint.write_error if checkpoint is not None else None
            ),
            elapsed_s=time.perf_counter() - started,
            workers=executor.workers,
            resumed_shards=resumed,
        )
        supervisor.write_manifest(failure_manifest, manifest)
        manifest_path = failure_manifest

    if errors and not allow_partial:
        raise CampaignError(errors, manifest_path=manifest_path)
    # map_trials returns in shard-index order, so this left fold is the
    # canonical merge order regardless of which worker finished first.
    summary = merge_summaries(
        (
            config.summary_type.from_json(payload)
            for payload in outcomes
            if not isinstance(payload, TrialError)
        ),
        total=config.empty_summary(),
    )
    return CampaignResult(
        config=config,
        summary=summary,
        shards=config.shard_count,
        workers=executor.workers,
        resumed_shards=resumed,
        errors=errors,
        quarantined=quarantined,
        manifest_path=manifest_path,
    )
