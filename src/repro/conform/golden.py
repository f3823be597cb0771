"""Golden-master stdout digests for every experiment (``repro verify``).

Each registered experiment runs at a fixed *quick profile* (small trial
counts, the default seed, ``--workers 1`` where the command takes it)
with stdout captured via
:func:`repro.experiments.executor.capture_stdout`.  The SHA-256 of the
captured text is compared against the checked-in ``golden.json``; a
mismatch fails the check *naming the experiment* and showing a unified
diff against the recorded text.

Intentional output changes are recorded with::

    repro verify --update-golden

which regenerates ``golden.json`` from the current tree and reports
which experiments changed.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conform.report import Section
from repro.experiments.executor import capture_stdout

#: The checked-in golden file (lives inside the package, next to this
#: module, so ``--update-golden`` writes into the source tree).
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def golden_path() -> Path:
    """The golden file for the active transport.

    ``GOLDEN_PATH`` (the historical name, which tests monkeypatch)
    stays authoritative for the default TCP transport, so the recorded
    TCP digests assert byte-identity across the transport refactor.  A
    verify run under ``REPRO_TRANSPORT=quic`` reads and writes a
    sibling ``golden_quic.json`` instead — each transport's stdout is
    its own contract.
    """
    from repro.transport import resolve_transport

    transport = resolve_transport()
    if transport == "tcp":
        return GOLDEN_PATH
    return GOLDEN_PATH.with_name(f"golden_{transport}.json")


#: Test-only hook: when set to an experiment name, that experiment's
#: captured stdout gets one byte perturbed — used by the test suite to
#: prove a single flipped byte fails verify with the experiment named.
PERTURB_ENV = "REPRO_GOLDEN_PERTURB"

#: Experiment name -> CLI argv at the quick profile.  Workers are
#: pinned to 1 so a ``REPRO_WORKERS`` in the environment cannot change
#: what the digests describe (the determinism matrix covers parallel
#: execution separately); fig1 runs one load and takes no ``--workers``.
EXPERIMENTS: Dict[str, List[str]] = {
    "baseline": ["baseline", "--trials", "2", "--workers", "1"],
    "table1": ["table1", "--trials", "2", "--workers", "1"],
    "table2": ["table2", "--trials", "2", "--workers", "1"],
    "fig1": ["fig1"],
    "fig5": ["fig5", "--trials", "2", "--workers", "1"],
    "fig6": ["fig6", "--trials", "2", "--workers", "1"],
    "delay": ["delay", "--trials", "2", "--workers", "1"],
    "ablations": ["ablations", "--trials", "2", "--workers", "1"],
    "trigger": ["trigger", "--trials", "2", "--workers", "1"],
    "streaming": ["streaming", "--trials", "2", "--workers", "1"],
    "partialmux": ["partialmux", "--trials", "2", "--workers", "1"],
    "generalization": ["generalization", "--trials", "2", "--workers", "1"],
    "fingerprint": ["fingerprint", "--workers", "1"],
    # transport-study pins both transports internally, so its golden
    # bytes are independent of REPRO_TRANSPORT.
    "transport-study": ["transport-study", "--trials", "16", "--workers", "1"],
    "robustness-study": [
        "robustness-study", "--quick", "--trials", "1", "--workers", "1",
    ],
    # The E19 frontier is pure integer arithmetic over counter streams:
    # its stdout is independent of transport, and the determinism matrix
    # additionally pins workers-4 and kill-resume.  At --workers 1 the
    # run is one campaign shard, so kill-resume resumes from none.
    "infer-study": ["infer-study", "--trials", "2", "--workers", "1"],
}

#: The ``--quick`` golden subset (fast, and spanning three different
#: aggregation paths: estimator-only, trial sweep, defense study).
QUICK_SUBSET = ("fig1", "table1", "partialmux")


def select_experiments(
    quick: bool = False, only: Optional[Sequence[str]] = None
) -> List[str]:
    """Resolve the experiment list a verify run covers.

    Raises:
        ValueError: when ``only`` names an unregistered experiment.
    """
    if only:
        unknown = [name for name in only if name not in EXPERIMENTS]
        if unknown:
            raise ValueError(
                f"unknown golden experiment(s) {unknown}; "
                f"registered: {', '.join(EXPERIMENTS)}"
            )
        return list(only)
    if quick:
        return list(QUICK_SUBSET)
    return list(EXPERIMENTS)


def capture(name: str, extra_argv: Sequence[str] = ()) -> str:
    """Run one experiment's CLI entry and return its captured stdout.

    Raises:
        RuntimeError: when the CLI exits non-zero.
    """
    from repro import cli

    argv = EXPERIMENTS[name] + list(extra_argv)
    with capture_stdout() as buffer:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"experiment {name!r} exited with code {code}")
    text = buffer.getvalue()
    if os.environ.get(PERTURB_ENV) == name and text:
        # Off-by-one on the last visible byte (test-only, see
        # PERTURB_ENV): proves a single-byte drift fails verify with
        # this experiment named in the report.
        index = len(text.rstrip()) - 1
        flipped = "0" if text[index] != "0" else "1"
        text = text[:index] + flipped + text[index + 1:]
    return text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, Dict[str, object]]:
    """The checked-in golden entries (empty when missing)."""
    path = golden_path()
    if not path.exists():
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload.get("experiments", {})


def write_golden(captures: Dict[str, str]) -> None:
    """Record digests (and the text, for diffing) of ``captures``."""
    entries = load_golden()
    for name, text in captures.items():
        entries[name] = {
            "argv": EXPERIMENTS[name],
            "sha256": digest(text),
            "lines": text.splitlines(),
        }
    payload = {
        "version": 1,
        "profile": "quick",
        "experiments": {name: entries[name] for name in sorted(entries)},
    }
    with open(golden_path(), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _diff(recorded_lines: List[str], text: str, name: str) -> str:
    diff_lines = list(difflib.unified_diff(
        recorded_lines, text.splitlines(),
        fromfile=f"golden/{name}", tofile=f"current/{name}", lineterm="",
    ))
    if len(diff_lines) > 24:
        diff_lines = diff_lines[:24] + [
            f"... ({len(diff_lines) - 24} more diff lines)"
        ]
    return "\n".join(diff_lines)


def run_checks(
    names: Sequence[str], update: bool = False
) -> Tuple[Dict[str, str], Section]:
    """Capture each experiment and compare (or update) its golden.

    Returns the captured texts — the determinism matrix reuses them as
    its serial reference, so verify never runs the serial cell twice —
    and the report section.
    """
    title = "Golden masters" + (" (updating)" if update else "")
    section = Section(title)
    captures: Dict[str, str] = {}
    recorded = load_golden()
    for name in names:
        started = time.monotonic()
        try:
            text = capture(name)
        except Exception as error:  # noqa: BLE001 - reported, not raised
            section.add(
                f"golden:{name}", False,
                f"capture failed: {type(error).__name__}: {error}",
                time.monotonic() - started,
            )
            continue
        captures[name] = text
        elapsed = time.monotonic() - started
        actual = digest(text)
        entry = recorded.get(name)
        if update:
            if entry is None:
                detail = f"recorded {actual[:12]} (new)"
            elif entry.get("sha256") == actual:
                detail = f"unchanged ({actual[:12]})"
            else:
                detail = (
                    f"changed {str(entry.get('sha256'))[:12]} -> {actual[:12]}"
                )
            section.add(f"golden:{name}", True, detail, elapsed)
        elif entry is None:
            section.add(
                f"golden:{name}", False,
                "no recorded golden — run `repro verify --update-golden`",
                elapsed,
            )
        elif entry.get("sha256") != actual:
            section.add(
                f"golden:{name}", False,
                f"stdout drifted from golden "
                f"({str(entry.get('sha256'))[:12]} -> {actual[:12]})\n"
                + _diff(list(entry.get("lines", [])), text, name),
                elapsed,
            )
        else:
            section.add(f"golden:{name}", True, actual[:12], elapsed)
    if update and captures:
        write_golden(captures)
    return captures, section
