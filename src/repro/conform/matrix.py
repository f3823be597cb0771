"""Determinism matrix: serial vs parallel vs kill-and-resume.

For every golden experiment at the quick profile, three cells must
produce bit-identical stdout:

* **serial** — the golden layer's capture (``--workers 1``), reused as
  the reference;
* **workers-4** — the same argv with ``--workers 4``: long-lived
  spawn workers, each fed one trial at a time, must not change a byte;
* **kill+resume** — the run is checkpointed, the checkpoint is
  truncated to a strict prefix (simulating a kill partway through),
  and the re-run must still match the reference.  The robustness study
  uses its own ``--checkpoint`` flow; every other experiment is
  checkpointed generically through the executor's
  :data:`~repro.experiments.executor.CHECKPOINT_DIR_ENV` hook.

This generalizes the one-off serial-vs-parallel and resume checks that
previously lived in ``tests/test_executor*.py`` into a per-experiment
guarantee the CLI can assert on demand.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.conform.golden import EXPERIMENTS, capture
from repro.conform.report import Section
from repro.experiments.executor import (
    CHECKPOINT_DIR_ENV,
    Checkpoint,
    reset_auto_checkpoint_calls,
)

#: The single cell the ``--quick`` profile runs (the experiment must be
#: in the quick golden subset so its serial reference exists).
QUICK_CELL = ("table1", "workers-4")


def _first_divergence(reference: str, candidate: str) -> str:
    """Locate the first differing line, for actionable failure detail."""
    ref_lines = reference.splitlines()
    new_lines = candidate.splitlines()
    for index, (ref, new) in enumerate(zip(ref_lines, new_lines), start=1):
        if ref != new:
            return f"first divergence at line {index}: {ref!r} != {new!r}"
    return (
        f"line counts differ: {len(ref_lines)} (serial) vs "
        f"{len(new_lines)}"
    )


def _truncate_checkpoint(path: Path) -> int:
    """Drop the second half of a checkpoint's results (simulated kill).

    Returns how many results were kept.  An empty or missing file is
    left alone — resume-from-nothing is just a full run.  Delegates to
    :meth:`Checkpoint.truncate`, which re-seals the file's integrity
    digest — a raw JSON rewrite would trip the corruption quarantine,
    which is the *chaos* harness's job to exercise, not the matrix's.
    """
    return Checkpoint.truncate(str(path))


def _workers_cell(section: Section, name: str, reference: str) -> None:
    started = time.monotonic()
    try:
        text = capture(name, extra_argv=["--workers", "4"])
    except Exception as error:  # noqa: BLE001 - reported, not raised
        section.add(f"matrix:{name}:workers-4", False,
                    f"run failed: {type(error).__name__}: {error}",
                    time.monotonic() - started)
        return
    passed = text == reference
    section.add(
        f"matrix:{name}:workers-4", passed,
        "" if passed else _first_divergence(reference, text),
        time.monotonic() - started,
    )


def _resume_cell(section: Section, name: str, reference: str) -> None:
    started = time.monotonic()
    check = f"matrix:{name}:kill+resume"
    try:
        with tempfile.TemporaryDirectory(prefix="repro-matrix-") as tmp:
            if name == "robustness-study":
                ck = Path(tmp) / "robustness.json"
                extra = ["--checkpoint", str(ck)]
                first = capture(name, extra_argv=extra)
                kept = _truncate_checkpoint(ck)
                resumed = capture(name, extra_argv=extra)
            else:
                previous = os.environ.get(CHECKPOINT_DIR_ENV)
                os.environ[CHECKPOINT_DIR_ENV] = tmp
                try:
                    reset_auto_checkpoint_calls()
                    first = capture(name)
                    kept = sum(
                        _truncate_checkpoint(path)
                        for path in sorted(Path(tmp).glob("call*.json"))
                    )
                    reset_auto_checkpoint_calls()
                    resumed = capture(name)
                finally:
                    if previous is None:
                        os.environ.pop(CHECKPOINT_DIR_ENV, None)
                    else:
                        os.environ[CHECKPOINT_DIR_ENV] = previous
    except Exception as error:  # noqa: BLE001 - reported, not raised
        section.add(check, False,
                    f"run failed: {type(error).__name__}: {error}",
                    time.monotonic() - started)
        return
    elapsed = time.monotonic() - started
    if first != reference:
        section.add(check, False,
                    "checkpointed run differs from serial: "
                    + _first_divergence(reference, first), elapsed)
    elif resumed != reference:
        section.add(check, False,
                    f"resumed run (from {kept} checkpointed trials) "
                    "differs from serial: "
                    + _first_divergence(reference, resumed), elapsed)
    else:
        section.add(check, True,
                    f"resumed from {kept} checkpointed trials", elapsed)


def run_checks(
    names: Sequence[str],
    captures: Dict[str, str],
    quick: bool = False,
) -> Section:
    """The determinism-matrix section of a verify run.

    ``captures`` is the golden layer's serial stdout per experiment —
    the reference every cell compares against.
    """
    section = Section(
        "Determinism matrix" + (" (quick: one cell)" if quick else "")
    )
    if quick:
        name, _ = QUICK_CELL
        if name in captures:
            _workers_cell(section, name, captures[name])
        else:
            section.add(f"matrix:{name}:workers-4", False,
                        "no serial reference (golden capture failed)")
        return section
    for name in names:
        if name not in EXPERIMENTS:
            continue
        reference = captures.get(name)
        if reference is None:
            section.add(f"matrix:{name}", False,
                        "no serial reference (golden capture failed)")
            continue
        _workers_cell(section, name, reference)
        _resume_cell(section, name, reference)
    return section
