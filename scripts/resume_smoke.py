#!/usr/bin/env python
"""CI smoke test for kill/resume bit-identity of a sharded run.

    python scripts/resume_smoke.py campaign --out campaign_smoke.json
    python scripts/resume_smoke.py infer --out infer_smoke.json

Stdlib only; the subcommand picks which sharded run to exercise:

A. A clean reference run (no checkpoint).
B. The same run with ``--checkpoint-dir``, SIGKILLed once the shard
   checkpoint holds at least two completed shards — the re-run must
   resume those shards (not recompute them), say so on stderr, and
   produce JSON identical to the uninterrupted reference.
C. ``infer`` only: frontier shape checks on the reference — undefended,
   the best statistical classifier beats the exact-match baseline, and
   the defense ladder's byte overhead is monotone.

Exit code 0 only if every phase holds.  The reference JSON is left at
``--out`` for upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (sessions, shard size) per subcommand — enough shards that the kill
#: lands mid-run on a CI runner.
SIZES = {"campaign": (30_000, 1_500), "infer": (120, 10)}
MIN_SHARDS_BEFORE_KILL = 2


def _env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _command(subcommand, json_out, checkpoint_dir=None, workers=2):
    sessions, shard_size = SIZES[subcommand]
    command = [
        sys.executable, "-m", "repro", subcommand,
        "--sessions", str(sessions), "--shard-size", str(shard_size),
        "--seed", "7", "--workers", str(workers),
        "--json", json_out,
    ]
    if checkpoint_dir:
        command += ["--checkpoint-dir", checkpoint_dir]
    return command


def _run(command, timeout):
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    print(completed.stdout)
    print(completed.stderr, file=sys.stderr)
    if completed.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(command)} exited {completed.returncode}"
        )
    return completed


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _checkpoint_shards(subcommand, checkpoint_dir):
    """Completed shard count in the run's (single) checkpoint file.

    Checkpoint files are named ``<subcommand>-<config digest>.json``.
    """
    paths = glob.glob(os.path.join(checkpoint_dir, f"{subcommand}-*.json"))
    if not paths:
        return 0
    try:
        return len(_load(paths[0]).get("results", {}))
    except (ValueError, OSError):
        return 0  # mid-replace; retry next poll


def phase_a(subcommand, workdir, timeout):
    print("== Phase A: reference run ==", flush=True)
    reference_path = os.path.join(workdir, "reference.json")
    _run(_command(subcommand, reference_path), timeout)
    return _load(reference_path)


def phase_b(subcommand, workdir, reference, timeout):
    print(f"== Phase B: kill repro {subcommand}, then resume ==", flush=True)
    out_path = os.path.join(workdir, "resumed.json")
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    os.makedirs(checkpoint_dir, exist_ok=True)
    command = _command(subcommand, out_path, checkpoint_dir=checkpoint_dir)
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    completed_before_kill = 0
    deadline = time.monotonic() + timeout
    while process.poll() is None and time.monotonic() < deadline:
        completed_before_kill = _checkpoint_shards(subcommand, checkpoint_dir)
        if completed_before_kill >= MIN_SHARDS_BEFORE_KILL:
            process.send_signal(signal.SIGKILL)
            break
        time.sleep(0.1)
    process.wait(timeout=30)
    if completed_before_kill < MIN_SHARDS_BEFORE_KILL:
        raise SystemExit(
            f"FAIL: repro {subcommand} finished before the checkpoint held "
            f"{MIN_SHARDS_BEFORE_KILL} shards to interrupt (nothing was "
            "tested) — shrink its shard size or add sessions in SIZES"
        )
    print(
        f"killed repro {subcommand} with {completed_before_kill} shard(s) "
        "checkpointed", flush=True,
    )

    # Resume: checkpointed shards must be reused, output must match.
    completed = _run(command, timeout)
    resumed_after = _checkpoint_shards(subcommand, checkpoint_dir)
    if resumed_after < completed_before_kill:
        raise SystemExit("FAIL: resume lost checkpointed shards")
    if "resumed" not in completed.stderr:
        raise SystemExit("FAIL: resume did not report resumed shards")
    if _load(out_path) != reference:
        raise SystemExit("FAIL: resumed output differs from reference")
    print(
        "phase B OK: resume reused the checkpoint, output identical",
        flush=True,
    )


def phase_c(reference):
    print("== Phase C: frontier shape checks ==", flush=True)
    summary = reference["summary"]
    off = summary["levels"][0]
    exact = off["correct"]["exact"]
    statistical = {
        name: correct for name, correct in off["correct"].items()
        if name != "exact"
    }
    best_name = max(statistical, key=lambda name: (statistical[name], name))
    print(
        f"undefended over {summary['objects']} objects: exact {exact}, "
        f"best statistical ({best_name}) {statistical[best_name]}"
    )
    if statistical[best_name] <= exact:
        raise SystemExit(
            "FAIL: undefended, no statistical classifier beat the "
            "exact-match baseline"
        )

    previous = -1
    for level in summary["levels"]:
        extra = (
            level["defended_bytes"] + level["chaff_bytes"]
            - level["base_bytes"]
        )
        permille = extra * 1000 // level["base_bytes"]
        print(f"  {level['name']}: byte overhead {permille} permille")
        if permille < previous:
            raise SystemExit(
                f"FAIL: byte overhead not monotone at {level['name']}"
            )
        previous = permille
    print("phase C OK: frontier shapes hold", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "subcommand", choices=sorted(SIZES),
        help="the sharded repro subcommand to kill and resume",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="directory for checkpoints and JSON outputs "
             "(default: <subcommand>_smoke)",
    )
    parser.add_argument(
        "--out", default=None,
        help="where to leave the reference JSON, the CI artifact "
             "(default: <subcommand>_smoke.json)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-phase wall-clock budget in seconds",
    )
    args = parser.parse_args()
    subcommand = args.subcommand
    out = args.out or f"{subcommand}_smoke.json"

    workdir = os.path.abspath(args.workdir or f"{subcommand}_smoke")
    os.makedirs(workdir, exist_ok=True)
    reference = phase_a(subcommand, workdir, args.timeout)
    phase_b(subcommand, workdir, reference, args.timeout)
    if subcommand == "infer":
        phase_c(reference)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{subcommand} resume smoke passed; JSON at {out}")


if __name__ == "__main__":
    main()
