#!/usr/bin/env python
"""CI smoke test for the fault-tolerant robustness study.

Three phases, stdlib only:

A. A clean ``repro robustness-study --quick`` reference run.
B. The same run with a checkpoint, during which one spawn *worker*
   process is SIGKILLed mid-trial — the supervised executor must retry
   the lost trial with the same seed and finish with output identical
   to the reference.  The kill waits for no fixed time: once the
   checkpoint holds a completed trial (the pool is past its start-up),
   the first spawn worker seen running (``R`` in ``/proc/<pid>/stat``;
   an idle worker sleeps on its pipe) on two polls 10 ms apart is
   killed.
C. The same run again, during which the *whole study* is SIGKILLed once
   the checkpoint holds completed trials — the resumed run must skip
   them and still produce output identical to the reference.

Exit code 0 only if every phase's JSON equals the reference.  The final
study JSON is left at ``--out`` for upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _study_command(json_out, checkpoint=None, workers=2):
    command = [
        sys.executable, "-m", "repro", "robustness-study",
        "--quick", "--seed", "7", "--workers", str(workers),
        "--json", json_out,
    ]
    if checkpoint:
        command += ["--checkpoint", checkpoint]
    return command


def _run(command, timeout):
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    print(completed.stdout)
    if completed.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(command)} exited {completed.returncode}"
        )


def _children(pid):
    """Direct children of ``pid`` (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(
                "utf-8", "replace"
            )
    except OSError:
        return ""


def _is_running(pid):
    """Whether ``pid`` is on a CPU or waiting for one (state ``R``)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state follows the parenthesized command name.
            return handle.read().rsplit(")", 1)[1].split()[0] == "R"
    except (OSError, IndexError):
        return False


def _find_busy_spawn_worker(pid):
    """A running spawn-context worker child of ``pid`` (not the resource
    tracker): one that holds a trial, since an idle worker sleeps on its
    pipe."""
    for child in _children(pid):
        cmdline = _cmdline(child)
        if (
            "spawn_main" in cmdline
            and "resource_tracker" not in cmdline
            and _is_running(child)
        ):
            return child
    return None


def _checkpointed(path):
    """Completed trials in the checkpoint at ``path`` (0 while absent or
    mid-replace)."""
    try:
        return len(_load(path).get("results", {}))
    except (ValueError, OSError):
        return 0


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def phase_a(workdir, timeout):
    print("== Phase A: reference run ==", flush=True)
    reference_path = os.path.join(workdir, "reference.json")
    _run(_study_command(reference_path), timeout)
    return _load(reference_path)


def phase_b(workdir, reference, timeout):
    print("== Phase B: kill one worker mid-run ==", flush=True)
    out_path = os.path.join(workdir, "killed_worker.json")
    checkpoint = os.path.join(workdir, "checkpoint_b.json")
    process = subprocess.Popen(
        _study_command(out_path, checkpoint=checkpoint),
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    killed = None
    busy_before = None
    deadline = time.monotonic() + timeout
    while process.poll() is None and time.monotonic() < deadline:
        if killed is None and _checkpointed(checkpoint) >= 1:
            worker = _find_busy_spawn_worker(process.pid)
            # Busy on two polls in a row: inside a trial, not in the
            # instant between sending one result and waiting for more.
            if worker is not None and worker == busy_before:
                try:
                    os.kill(worker, signal.SIGKILL)
                    killed = worker
                    print(f"killed busy worker pid {worker}", flush=True)
                except ProcessLookupError:
                    pass  # finished first; catch the next one
            busy_before = worker
        time.sleep(0.01)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit("FAIL: phase B run timed out")
    print(stdout)
    if killed is None:
        raise SystemExit("FAIL: never found a spawn worker to kill")
    if process.returncode != 0:
        raise SystemExit(f"FAIL: phase B run exited {process.returncode}")
    result = _load(out_path)
    if result != reference:
        raise SystemExit(
            "FAIL: output after worker kill differs from reference"
        )
    print("phase B OK: worker kill retried, output identical", flush=True)


def phase_c(workdir, reference, timeout):
    print("== Phase C: kill the whole run, then resume ==", flush=True)
    out_path = os.path.join(workdir, "resumed.json")
    checkpoint = os.path.join(workdir, "checkpoint_c.json")
    process = subprocess.Popen(
        _study_command(out_path, checkpoint=checkpoint),
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    completed_before_kill = 0
    deadline = time.monotonic() + timeout
    while process.poll() is None and time.monotonic() < deadline:
        completed_before_kill = _checkpointed(checkpoint)
        if completed_before_kill >= 2:
            process.send_signal(signal.SIGKILL)
            break
        time.sleep(0.1)
    process.wait(timeout=30)
    if completed_before_kill < 2:
        raise SystemExit(
            "FAIL: run finished before the checkpoint had 2 trials to "
            "interrupt (nothing was tested)"
        )
    print(
        f"killed study with {completed_before_kill} trials checkpointed",
        flush=True,
    )
    # Resume: completed trials must not be lost, output must match.
    _run(_study_command(out_path, checkpoint=checkpoint), timeout)
    resumed_checkpoint = len(_load(checkpoint).get("results", {}))
    if resumed_checkpoint < completed_before_kill:
        raise SystemExit("FAIL: resume lost checkpointed trials")
    result = _load(out_path)
    if result != reference:
        raise SystemExit("FAIL: resumed output differs from reference")
    print("phase C OK: resume completed, output identical", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workdir", default="robustness_smoke",
        help="directory for checkpoints and JSON outputs",
    )
    parser.add_argument(
        "--out", default="robustness_study.json",
        help="where to leave the final study JSON (CI artifact)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-phase wall-clock budget in seconds",
    )
    args = parser.parse_args()

    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)
    reference = phase_a(workdir, args.timeout)
    phase_b(workdir, reference, args.timeout)
    phase_c(workdir, reference, args.timeout)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"robustness smoke passed; study JSON at {args.out}")


if __name__ == "__main__":
    main()
