"""Campaign supervision artifacts: failure manifests and error tables.

A degraded sharded run (``repro campaign`` or ``repro infer``) must be
*accountable*: which shards completed, which failed and why, what was
quarantined, and exactly which sessions the partial result covers.
This module owns the two machine/human interfaces for that accounting:

* the **failure manifest** — a machine-readable JSON document
  (:data:`MANIFEST_SCHEMA`) written by ``run_campaign(...,
  failure_manifest=PATH)`` / ``repro campaign --failure-manifest PATH``
  with per-shard attempt history, tracebacks, error taxonomy, session
  coverage and quarantined-checkpoint records;
* the **shard error table** — the concise per-shard stderr rendering
  the CLI prints instead of a raw traceback when a run fails.

Both read only the :class:`~repro.campaign.engine.ShardedConfig`
protocol (digest, seed and shard geometry), so they serve every config
the runner accepts.

The manifest deliberately allows wall-clock fields (``elapsed_s``,
attempt timings): it is a diagnostic artifact, never an input to the
bit-identity machinery, and nothing in the golden/verify layers hashes
it.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.experiments.executor import ERROR_KINDS, TrialError
from repro.experiments.report import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.engine import ShardedConfig

#: Manifest format version; bump on breaking schema changes.
MANIFEST_VERSION = 1

#: Self-describing schema tag embedded in every manifest.
MANIFEST_SCHEMA = "repro.campaign.failure-manifest/v1"

#: Top-level keys every valid manifest must carry.
_REQUIRED_KEYS = (
    "version", "schema", "status", "campaign", "coverage", "shards",
    "quarantined_checkpoints", "checkpoint_write_error",
)

#: Keys of every per-shard failure record.
_SHARD_KEYS = (
    "shard", "sessions", "kind", "attempts", "error", "traceback",
    "history",
)

#: Valid terminal statuses of a supervised campaign.
STATUSES = ("complete", "partial", "failed")


def shard_error_record(
    config: "ShardedConfig", error: TrialError
) -> Dict[str, Any]:
    """One manifest entry for a failed/skipped shard."""
    span = config.shard_range(error.trial)
    return {
        "shard": error.trial,
        "sessions": [span.start, span.stop],
        "kind": error.kind,
        "attempts": error.attempts,
        "error": error.error,
        "traceback": error.traceback,
        "history": [dict(entry) for entry in error.history],
    }


def build_manifest(
    config: "ShardedConfig",
    errors: Sequence[TrialError],
    *,
    status: str,
    quarantined: Sequence[str] = (),
    checkpoint_write_error: Optional[str] = None,
    elapsed_s: Optional[float] = None,
    workers: int = 1,
    resumed_shards: int = 0,
) -> Dict[str, Any]:
    """Assemble the failure-manifest payload for one sharded run."""
    if status not in STATUSES:
        raise ValueError(f"unknown manifest status {status!r}")
    failed = [e for e in errors if e.kind != "deadline"]
    skipped = [e for e in errors if e.kind == "deadline"]
    sessions_missing = sum(
        len(config.shard_range(e.trial)) for e in errors
    )
    return {
        "version": MANIFEST_VERSION,
        "schema": MANIFEST_SCHEMA,
        "status": status,
        "campaign": {
            "config_digest": config.digest(),
            "sessions": config.sessions,
            "shard_size": config.shard_size,
            "shards": config.shard_count,
            "seed": config.seed,
        },
        "coverage": {
            "completed_shards": config.shard_count - len(errors),
            "failed_shards": len(failed),
            "skipped_shards": len(skipped),
            "sessions_total": config.sessions,
            "sessions_covered": config.sessions - sessions_missing,
        },
        "shards": [
            shard_error_record(config, error)
            for error in sorted(errors, key=lambda e: e.trial)
        ],
        "quarantined_checkpoints": list(quarantined),
        "checkpoint_write_error": checkpoint_write_error,
        "execution": {
            "workers": workers,
            "resumed_shards": resumed_shards,
            "elapsed_s": (
                round(elapsed_s, 3) if elapsed_s is not None else None
            ),
        },
    }


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Write a manifest (validated first, temp-file + atomic rename)."""
    validate_manifest(manifest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)


def validate_manifest(payload: Any) -> None:
    """Schema-check a manifest; raises ``ValueError`` naming the defect.

    Used by the chaos harness and the smoke scripts to assert that
    every degraded run leaves a *well-formed* record behind, not just
    any JSON.
    """
    if not isinstance(payload, dict):
        raise ValueError("manifest must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"manifest missing keys: {missing}")
    if payload["version"] != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload['version']!r}"
        )
    if payload["schema"] != MANIFEST_SCHEMA:
        raise ValueError(f"unexpected manifest schema {payload['schema']!r}")
    if payload["status"] not in STATUSES:
        raise ValueError(f"invalid manifest status {payload['status']!r}")
    coverage = payload["coverage"]
    for key in ("completed_shards", "failed_shards", "skipped_shards",
                "sessions_total", "sessions_covered"):
        if not isinstance(coverage.get(key), int):
            raise ValueError(f"coverage.{key} must be an integer")
    accounted = (
        coverage["completed_shards"] + coverage["failed_shards"]
        + coverage["skipped_shards"]
    )
    if accounted != payload["campaign"]["shards"]:
        raise ValueError(
            f"coverage does not account for every shard "
            f"({accounted} != {payload['campaign']['shards']})"
        )
    if not isinstance(payload["shards"], list):
        raise ValueError("manifest shards must be a list")
    for record in payload["shards"]:
        missing = [key for key in _SHARD_KEYS if key not in record]
        if missing:
            raise ValueError(
                f"shard record {record.get('shard')!r} missing {missing}"
            )
        if record["kind"] not in ERROR_KINDS:
            raise ValueError(
                f"shard {record['shard']!r} has unknown kind "
                f"{record['kind']!r}"
            )
    degraded = bool(payload["shards"])
    if payload["status"] == "complete" and degraded:
        raise ValueError("status 'complete' with failed shard records")
    if payload["status"] != "complete" and not degraded:
        raise ValueError(f"status {payload['status']!r} with no shard records")


def render_shard_errors(
    config: "ShardedConfig", errors: Sequence[TrialError]
) -> str:
    """The concise per-shard error table the CLI prints to stderr."""
    rows: List[List[str]] = []
    for error in sorted(errors, key=lambda e: e.trial):
        span = config.shard_range(error.trial)
        message = error.error
        if len(message) > 48:
            message = message[:45] + "..."
        rows.append([
            str(error.trial),
            f"{span.start}-{span.stop - 1}",
            error.kind,
            str(error.attempts),
            message,
        ])
    return format_table(
        ["shard", "sessions", "kind", "attempts", "error"], rows,
        title=f"Campaign shard failures ({len(errors)})",
    )
