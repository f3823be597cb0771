"""Chaos scenarios: inject a fault, demand a bit-identical recovery.

Every scenario runs a small analytic campaign twice over in spirit:
once undisturbed (the *reference* digest) and once under an injected
fault — a SIGKILLed worker, a corrupted or torn checkpoint, a disk
that refuses checkpoint writes, a stalled shard, an expired deadline.
The pass condition is the supervisor contract from the campaign
engine:

* **recovered** — the faulted run terminates normally and its merged
  summary digest equals the reference digest bit for bit; or
* **partial** — the faulted run returns a degraded
  :class:`~repro.campaign.engine.CampaignResult` *plus* a failure
  manifest that validates against
  :data:`~repro.campaign.supervisor.MANIFEST_SCHEMA` with consistent
  coverage accounting.

Anything else — an unhandled traceback, a silently wrong digest, a
malformed manifest — fails the scenario.  ``repro chaos`` runs these
from the CLI and ``repro verify`` wires the quick subset into its
check matrix, so the recovery path is regression-tested alongside the
numbers it protects.

All fault points are seeded (victim shards from the config digest,
corruption offsets from an explicit seed), so a chaos run replays
identically — flaky chaos tests would be worse than none.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import (
    CampaignConfig,
    CampaignResult,
    ShardTask,
    checkpoint_path,
    run_campaign,
)
from repro.campaign.supervisor import validate_manifest
from repro.chaos.inject import (
    corrupt_byte,
    failing_checkpoint_writes,
    truncate_bytes,
)
from repro.experiments.report import format_table

#: Recognised scenario outcome modes.
MODES = ("recovered", "partial")


@dataclass(frozen=True)
class ChaosShardTask:
    """Picklable shard task that fires a fault once, then runs for real.

    Delegates to the genuine :class:`ShardTask` — the computed summary
    is bit-identical to an unfaulted run by construction; only the
    *execution* is sabotaged.  A marker file per victim shard makes
    every fault one-shot: the supervised retry of the same shard runs
    clean, which is exactly the recovery path under test.

    Faults:

    * ``kill`` — SIGKILL this worker process.  Even victim shards die
      on entry (no work done); odd victims compute the full shard first
      and die before reporting (completed work lost in flight) — the
      two interesting points in a worker's life.
    * ``stall`` — stop emitting progress heartbeats by sleeping; the
      supervisor's heartbeat watchdog must notice and kill us.
    """

    config: CampaignConfig
    fault: str
    victims: Tuple[int, ...]
    marker_dir: str
    stall_seconds: float = 30.0

    def __call__(self, shard: int) -> Dict[str, Any]:
        real = ShardTask(self.config)
        if shard not in self.victims:
            return real(shard)
        marker = os.path.join(self.marker_dir, f"fault-{shard}")
        if os.path.exists(marker):
            return real(shard)  # retry attempt: run clean
        with open(marker, "w"):
            pass
        if self.fault == "kill":
            if shard % 2 == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            result = real(shard)  # work done, then lost in flight
            del result
            os.kill(os.getpid(), signal.SIGKILL)
        if self.fault == "stall":
            time.sleep(self.stall_seconds)
        return real(shard)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one chaos scenario."""

    name: str
    passed: bool
    mode: str
    detail: str
    duration_s: float

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _pick_victims(config: CampaignConfig, count: int, salt: str) -> Tuple[int, ...]:
    """Seeded victim shards — pseudo-random but replayable."""
    token = hashlib.sha256(
        f"{config.digest()}|{salt}".encode("utf-8")
    ).digest()
    victims: List[int] = []
    for offset in range(0, len(token) - 4, 4):
        shard = int.from_bytes(token[offset:offset + 4], "big")
        shard %= config.shard_count
        if shard not in victims:
            victims.append(shard)
        if len(victims) == count:
            break
    return tuple(sorted(victims))


def _reference_digest(config: CampaignConfig) -> str:
    """Digest of the undisturbed run — the recovery target."""
    return run_campaign(config, workers=1).digest()


def _load_manifest(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_manifest(payload)
    return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# ---------------------------------------------------------------------------
# Scenario bodies.  Each takes a workdir and returns a detail
# string on success; assertion failures / exceptions fail the scenario.
# ---------------------------------------------------------------------------


def _scenario_worker_kill(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=1600, shard_size=200, seed=11)
    reference = _reference_digest(config)
    victims = _pick_victims(config, 2, "worker-kill")
    task = ChaosShardTask(
        config=config, fault="kill", victims=victims, marker_dir=workdir,
    )
    result = run_campaign(
        config, workers=2, checkpoint_dir=workdir, retries=2, shard_task=task,
    )
    for shard in victims:
        _require(
            os.path.exists(os.path.join(workdir, f"fault-{shard}")),
            f"kill fault for shard {shard} never fired",
        )
    _require(not result.partial, "recovered run must have full coverage")
    _require(
        result.digest() == reference,
        f"digest drifted after worker kills: {result.digest()} != {reference}",
    )
    return "recovered", (
        f"SIGKILLed workers on shards {list(victims)}; retries recovered "
        f"digest {reference[:12]}"
    )


def _scenario_checkpoint_corrupt(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=1200, shard_size=200, seed=13)
    reference = _reference_digest(config)
    first = run_campaign(config, workers=1, checkpoint_dir=workdir)
    _require(first.digest() == reference, "baseline checkpointed run drifted")
    path = checkpoint_path(config, workdir)
    offset = corrupt_byte(path, seed=config.seed)
    result = run_campaign(
        config, workers=1, checkpoint_dir=workdir,
        failure_manifest=os.path.join(workdir, "manifest.json"),
    )
    sidecar = path + ".corrupt"
    _require(os.path.exists(sidecar), "corrupted checkpoint not quarantined")
    _require(result.quarantined == [sidecar], "quarantine not reported")
    _require(result.resumed_shards == 0, "resumed from a corrupt checkpoint")
    _require(
        result.digest() == reference,
        f"digest drifted after corruption: {result.digest()} != {reference}",
    )
    manifest = _load_manifest(os.path.join(workdir, "manifest.json"))
    _require(
        manifest["quarantined_checkpoints"] == [sidecar],
        "manifest missing quarantine record",
    )
    return "recovered", (
        f"byte {offset} flipped → quarantined to .corrupt, recomputed "
        f"digest {reference[:12]}"
    )


def _scenario_checkpoint_truncate(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=1200, shard_size=200, seed=17)
    reference = _reference_digest(config)
    run_campaign(config, workers=1, checkpoint_dir=workdir)
    path = checkpoint_path(config, workdir)
    kept = truncate_bytes(path, fraction=0.6)
    result = run_campaign(config, workers=1, checkpoint_dir=workdir)
    sidecar = path + ".corrupt"
    _require(os.path.exists(sidecar), "torn checkpoint not quarantined")
    _require(result.quarantined == [sidecar], "quarantine not reported")
    _require(
        result.digest() == reference,
        f"digest drifted after torn write: {result.digest()} != {reference}",
    )
    return "recovered", (
        f"checkpoint torn to {kept} bytes → quarantined, recomputed "
        f"digest {reference[:12]}"
    )


def _scenario_checkpoint_enospc(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=1200, shard_size=200, seed=19)
    reference = _reference_digest(config)
    manifest_path = os.path.join(workdir, "manifest.json")
    with failing_checkpoint_writes(failures=3) as faults:
        result = run_campaign(
            config, workers=1, checkpoint_dir=workdir,
            failure_manifest=manifest_path,
        )
    _require(faults["raised"] >= 1, "ENOSPC fault never fired")
    _require(not result.partial, "write failure must not degrade coverage")
    _require(
        result.digest() == reference,
        f"digest drifted under ENOSPC: {result.digest()} != {reference}",
    )
    manifest = _load_manifest(manifest_path)
    _require(
        bool(manifest["checkpoint_write_error"]),
        "manifest missing checkpoint_write_error",
    )
    _require(manifest["status"] == "complete", "run should still be complete")
    return "recovered", (
        "checkpoint writes hit ENOSPC → checkpointing disabled gracefully, "
        f"digest {reference[:12]} intact, write error in manifest"
    )


def _scenario_stalled_shard(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=800, shard_size=200, seed=23)
    reference = _reference_digest(config)
    victims = _pick_victims(config, 1, "stalled-shard")
    task = ChaosShardTask(
        config=config, fault="stall",
        victims=victims, marker_dir=workdir, stall_seconds=30.0,
    )
    started = time.monotonic()
    result = run_campaign(
        config, workers=2, checkpoint_dir=workdir, retries=1,
        heartbeat_timeout=1.0, shard_task=task,
    )
    elapsed = time.monotonic() - started
    _require(
        elapsed < 20.0,
        f"watchdog too slow: {elapsed:.1f}s (stall is 30s)",
    )
    _require(not result.partial, "recovered run must have full coverage")
    _require(
        result.digest() == reference,
        f"digest drifted after stall: {result.digest()} != {reference}",
    )
    return "recovered", (
        f"shard {victims[0]} went silent; heartbeat watchdog killed and "
        f"retried it in {elapsed:.1f}s, digest {reference[:12]}"
    )


def _scenario_deadline_expiry(workdir: str) -> Tuple[str, str]:
    config = CampaignConfig(sessions=2000, shard_size=200, seed=29)
    manifest_path = os.path.join(workdir, "manifest.json")
    result = run_campaign(
        config, workers=1, deadline=0.0,
        allow_partial=True, failure_manifest=manifest_path,
    )
    _require(result.partial, "expired deadline must yield a partial result")
    _require(
        len(result.skipped_shards) == config.shard_count,
        "all shards should be deadline-skipped",
    )
    _require(result.sessions_covered == 0, "no sessions should be covered")
    _require(
        all(e.kind == "deadline" for e in result.errors),
        "unexpected error kinds under a pure deadline expiry",
    )
    manifest = _load_manifest(manifest_path)
    _require(manifest["status"] == "partial", "manifest status must be partial")
    _require(
        manifest["coverage"]["skipped_shards"] == config.shard_count,
        "manifest coverage disagrees with the result",
    )
    # The partial result's JSON must carry the coverage block.
    payload = result.to_json()
    _require("coverage" in payload, "partial result JSON missing coverage")
    return "partial", (
        f"deadline expired before any shard; {config.shard_count} shards "
        "skipped, valid partial manifest written"
    )


# ---------------------------------------------------------------------------
# Registry and runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered chaos scenario."""

    name: str
    description: str
    quick: bool
    body: Callable[[str], Tuple[str, str]]


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "worker-kill",
            "SIGKILL workers at seeded points; retries recover the digest",
            quick=False, body=_scenario_worker_kill,
        ),
        ScenarioSpec(
            "checkpoint-corrupt",
            "flip a checkpoint byte; resume quarantines and recomputes",
            quick=True, body=_scenario_checkpoint_corrupt,
        ),
        ScenarioSpec(
            "checkpoint-truncate",
            "tear a checkpoint mid-file; resume quarantines and recomputes",
            quick=True, body=_scenario_checkpoint_truncate,
        ),
        ScenarioSpec(
            "checkpoint-enospc",
            "checkpoint writes raise ENOSPC; run completes, digest intact",
            quick=True, body=_scenario_checkpoint_enospc,
        ),
        ScenarioSpec(
            "stalled-shard",
            "a shard stops heartbeating; the watchdog kills and retries it",
            quick=False, body=_scenario_stalled_shard,
        ),
        ScenarioSpec(
            "deadline-expiry",
            "deadline expires; partial result + valid failure manifest",
            quick=True, body=_scenario_deadline_expiry,
        ),
    )
}

#: Scenarios cheap enough for ``repro verify --quick`` (serial, no
#: process spawns beyond the campaign itself).
QUICK_SCENARIOS = tuple(
    name for name, spec in SCENARIOS.items() if spec.quick
)


def run_scenario(
    name: str,
    workdir: Optional[str] = None,
) -> ScenarioResult:
    """Run one scenario; never raises — failures become a FAIL result."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown chaos scenario {name!r}; "
            f"expected one of {sorted(SCENARIOS)}"
        )
    started = time.monotonic()

    def finish(passed: bool, mode: str, detail: str) -> ScenarioResult:
        return ScenarioResult(
            name=name, passed=passed, mode=mode, detail=detail,
            duration_s=time.monotonic() - started,
        )

    try:
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="chaos-") as temp:
                mode, detail = spec.body(temp)
        else:
            scenario_dir = os.path.join(workdir, name)
            os.makedirs(scenario_dir, exist_ok=True)
            mode, detail = spec.body(scenario_dir)
    except AssertionError as failure:
        return finish(False, "failed", str(failure))
    except Exception as failure:  # noqa: BLE001 - harness boundary
        last = traceback.format_exc().strip().splitlines()[-1]
        return finish(False, "error", f"unhandled: {last}")
    if mode not in MODES:
        return finish(False, "error", f"scenario returned bad mode {mode!r}")
    return finish(True, mode, detail)


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    workdir: Optional[str] = None,
) -> List[ScenarioResult]:
    """Run a set of scenarios (default: all; ``quick``: the CI subset)."""
    if names is None:
        names = QUICK_SCENARIOS if quick else tuple(SCENARIOS)
    return [run_scenario(name, workdir=workdir) for name in names]


def render_results(results: Sequence[ScenarioResult]) -> str:
    """The ``repro chaos`` stdout table."""
    rows = [
        [
            result.name,
            result.status,
            result.mode,
            f"{result.duration_s:.1f}s",
            result.detail,
        ]
        for result in results
    ]
    good = sum(1 for result in results if result.passed)
    return format_table(
        ["scenario", "status", "mode", "time", "detail"], rows,
        title=(
            f"Chaos harness — fault injection → recovery "
            f"({good}/{len(results)} passed)"
        ),
    )


def verify_section(quick: bool = False):
    """The chaos rows of the ``repro verify`` matrix."""
    from repro.conform.report import Section

    section = Section(
        "Chaos supervision (fault injection → bit-identical recovery)"
    )
    for result in run_scenarios(quick=quick):
        section.add(
            f"chaos:{result.name}",
            result.passed,
            detail=result.detail,
            duration=result.duration_s,
        )
    return section
