"""Kill-and-resume recovery of the three checkpointed commands.

Each case drives ``python -m repro <command>`` in subprocesses, the way
an operator would.  It runs the command once uninterrupted for a
reference; once with a checkpoint, SIGKILLed as soon as the checkpoint
file holds two completed results; and once more to resume.  The resume
must exit 0, keep every checkpointed result, and write ``--json``
output equal to the reference.  The third field of a command's
:data:`RECOVERY` entry adds phases of its own, run between the kill and
the resume:

* ``campaign`` resumes a byte-flipped copy of the post-kill checkpoint
  with ``--failure-manifest``: the copy is quarantined to a
  ``.corrupt`` sidecar, the output still equals the reference, and the
  manifest records the quarantine;
* ``infer`` checks the frontier's shapes on the reference;
* ``robustness-study`` SIGKILLs one busy spawn worker of another
  checkpointed run, whose same-seed retry must reproduce the reference.

Every subprocess runs in a session of its own, and its whole process
group is SIGKILLed when its phase ends, pass or fail, so no worker
outlives a test.  The module is ``slow`` (CI's recovery job runs it);
``tests/test_cli_dispatch.py`` parses every argv of
:func:`recovery_argvs` in the default run.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import validate_manifest

ROOT = Path(__file__).resolve().parents[1]

#: Wall-clock budget of one subprocess, in seconds.
TIMEOUT = 540.0

#: Completed results the checkpoint must hold before the kill lands.
MIN_RESULTS_BEFORE_KILL = 2


@contextlib.contextmanager
def _repro(argv, output=subprocess.PIPE):
    """Start ``python -m repro argv`` in a new session; on exit, SIGKILL
    its process group (spawn workers included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    with subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
        stdout=output, stderr=output, text=True, start_new_session=True,
    ) as process:
        try:
            yield process
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)


def _complete(argv):
    """Run ``repro argv`` to completion, require exit 0, return stderr."""
    with _repro(argv) as process:
        _, stderr = process.communicate(timeout=TIMEOUT)
    assert process.returncode == 0, (
        f"repro {' '.join(argv)} exited {process.returncode}:\n{stderr}"
    )
    return stderr


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _results(checkpoint_dir):
    """Completed results in the run's single checkpoint file (0 while it
    is absent or being replaced)."""
    for path in Path(checkpoint_dir).glob("*.json"):
        with contextlib.suppress(OSError, ValueError, KeyError):
            return len(_load(path)["results"])
    return 0


def _kill_once_checkpointed(argv, checkpoint_dir):
    """SIGKILL ``repro argv`` once its checkpoint holds enough results;
    returns the count seen at the kill."""
    seen = 0
    with _repro(argv, output=subprocess.DEVNULL) as process:
        deadline = time.monotonic() + TIMEOUT
        while process.poll() is None and time.monotonic() < deadline:
            seen = _results(checkpoint_dir)
            if seen >= MIN_RESULTS_BEFORE_KILL:
                process.kill()
                break
            time.sleep(0.1)
    assert seen >= MIN_RESULTS_BEFORE_KILL, (
        f"repro {argv[0]} finished before its checkpoint held "
        f"{MIN_RESULTS_BEFORE_KILL} results, so nothing was tested: "
        "add sessions or shrink the shards in RECOVERY"
    )
    return seen


def _resume_corrupted_copy(tmp_path, reference, checkpoint_dir):
    """campaign: resume from a byte-flipped copy of the checkpoint."""
    corrupt_dir = tmp_path / "corrupt"
    shutil.copytree(checkpoint_dir, corrupt_dir)
    (path,) = corrupt_dir.glob("*.json")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    out, manifest = tmp_path / "recovered.json", tmp_path / "manifest.json"
    stderr = _complete(_argv("campaign", out, corrupt_dir, manifest))
    sidecar = f"{path}.corrupt"
    assert os.path.exists(sidecar), "the flipped copy was not quarantined"
    assert "quarantined checkpoint" in stderr
    assert _load(out) == reference
    record = _load(manifest)
    validate_manifest(record)
    assert record["status"] == "complete"
    assert record["quarantined_checkpoints"] == [sidecar]


def _frontier_shapes(tmp_path, reference, checkpoint_dir):
    """infer: undefended, the best statistical classifier beats exact
    matching, and byte overhead is monotone up the defense ladder."""
    levels = reference["summary"]["levels"]
    statistical = dict(levels[0]["correct"])
    exact = statistical.pop("exact")
    assert max(statistical.values()) > exact, statistical
    overheads = [
        (level["defended_bytes"] + level["chaff_bytes"] - level["base_bytes"])
        * 1000 // level["base_bytes"]
        for level in levels
    ]
    assert overheads == sorted(overheads), overheads


def _busy_spawn_worker(pid):
    """A spawn worker child of ``pid`` that is on a CPU (state ``R``),
    so it holds a trial: an idle worker sleeps on its pipe."""
    with contextlib.suppress(OSError):
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
        for child in children:
            with contextlib.suppress(OSError, IndexError):
                cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
                stat = Path(f"/proc/{child}/stat").read_text()
                # The state follows the parenthesized command name.
                if (b"spawn_main" in cmdline
                        and b"resource_tracker" not in cmdline
                        and stat.rsplit(")", 1)[1].split()[0] == "R"):
                    return int(child)
    return None


def _kill_busy_worker(tmp_path, reference, checkpoint_dir):
    """robustness-study: SIGKILL one busy spawn worker of a checkpointed
    run; the executor's same-seed retry must reproduce the reference."""
    out, worker_dir = tmp_path / "worker-killed.json", tmp_path / "worker"
    worker_dir.mkdir()
    killed = busy_before = None
    with _repro(_argv("robustness-study", out, worker_dir)) as process:
        deadline = time.monotonic() + TIMEOUT
        while process.poll() is None and time.monotonic() < deadline:
            # Past start-up once a trial is checkpointed; busy on two
            # polls 10 ms apart means inside a trial, not between two.
            if killed is None and _results(worker_dir) >= 1:
                worker = _busy_spawn_worker(process.pid)
                if worker is not None and worker == busy_before:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(worker, signal.SIGKILL)
                        killed = worker
                busy_before = worker
            time.sleep(0.01)
        _, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    assert killed is not None, "never found a busy spawn worker to kill"
    assert process.returncode == 0, stderr
    assert _load(out) == reference


#: command -> (argv before the output flags, checkpoint file name, extra
#: phases).  A sharded command takes ``--checkpoint-dir`` and names its
#: own file (None here); the others take ``--checkpoint FILE``.  The
#: sizes give enough shards or trials that the kill lands mid-run.
RECOVERY = {
    "campaign": (
        ["campaign", "--sessions", "30000", "--shard-size", "1500",
         "--seed", "7", "--workers", "2"],
        None, (_resume_corrupted_copy,),
    ),
    "infer": (
        ["infer", "--sessions", "120", "--shard-size", "10",
         "--seed", "7", "--workers", "2"],
        None, (_frontier_shapes,),
    ),
    "robustness-study": (
        ["robustness-study", "--quick", "--seed", "7", "--workers", "2"],
        "study.json", (_kill_busy_worker,),
    ),
}


def _argv(command, out, checkpoint_dir=None, manifest=None):
    """The argv of one run; ``checkpoint_dir`` holds its one checkpoint."""
    argv, checkpoint_file, _ = RECOVERY[command]
    argv = [*argv, "--json", str(out)]
    if checkpoint_dir is not None and checkpoint_file is None:
        argv += ["--checkpoint-dir", str(checkpoint_dir)]
    elif checkpoint_dir is not None:
        argv += ["--checkpoint", str(Path(checkpoint_dir) / checkpoint_file)]
    if manifest is not None:
        argv += ["--failure-manifest", str(manifest)]
    return argv


def recovery_argvs():
    """Every argv this module runs, with placeholder paths."""
    return [
        _argv(command, "out.json", *paths)
        for command in RECOVERY
        for paths in ((), ("ck",))
    ] + [_argv("campaign", "out.json", "ck", "manifest.json")]


@pytest.mark.slow
@pytest.mark.parametrize("command", RECOVERY)
def test_kill_and_resume_matches_uninterrupted_run(command, tmp_path):
    _, checkpoint_file, phases = RECOVERY[command]
    reference_path = tmp_path / "reference.json"
    _complete(_argv(command, reference_path))
    reference = _load(reference_path)

    checkpoint_dir = tmp_path / "checkpoint"
    checkpoint_dir.mkdir()
    argv = _argv(command, tmp_path / "resumed.json", checkpoint_dir)
    killed_at = _kill_once_checkpointed(argv, checkpoint_dir)
    for phase in phases:
        phase(tmp_path, reference, checkpoint_dir)

    stderr = _complete(argv)
    assert _results(checkpoint_dir) >= killed_at, (
        "the resume lost checkpointed results"
    )
    if checkpoint_file is None:  # sharded: reports what it reused
        resumed = re.search(r"(\d+) shard\(s\) resumed", stderr)
        assert resumed and int(resumed[1]) >= killed_at, stderr
    assert _load(tmp_path / "resumed.json") == reference
