"""Package roots and the paper path stay import-light.

A spawned campaign worker's first act is ``import
repro.experiments.executor``, to unpickle its task, so whatever the
package roots import eagerly every worker pays for before its first
shard.  Likewise every paper-experiment process and trial worker pays
for whatever one trial imports.  Each check runs in a fresh
interpreter, because the test process has long since imported
everything.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from typing import List, Sequence, Set

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``src`` on the path."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], cwd=str(SRC.parent),
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=120,
    )


def modules_after(statement: str, **env: str) -> Set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    completed = run_fresh(
        f"import sys\n{statement}\nprint(*sys.modules)", **env
    )
    assert completed.returncode == 0, completed.stderr
    return set(completed.stdout.split())


def loaded_under(modules: Set[str], packages: Sequence[str]) -> List[str]:
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


def test_campaign_worker_imports_skip_packet_stack_and_numpy():
    # The campaign engine docstring's promise: analytic campaigns never
    # touch the simulator.
    modules = modules_after(
        "import repro.experiments.executor, repro.campaign.engine"
    )
    assert loaded_under(modules, [
        "numpy", "scipy", "repro.h2", "repro.tcp", "repro.netsim",
        "repro.transport", "repro.experiments.harness",
    ]) == []


def test_cli_import_loads_no_numpy():
    assert loaded_under(modules_after("import repro.cli"), ["numpy"]) == []


FIG6_TRIAL = """
from repro.experiments.harness import summarize_trial
from repro.experiments.hotpath import reference_config
from repro.web.workload import VolunteerWorkload
summarize_trial(3, VolunteerWorkload(seed=7), reference_config("fig6"))
"""


@pytest.mark.parametrize("transport", ["tcp", "quic"])
def test_paper_trial_loads_no_numpy_or_scipy(transport):
    # The fig6 trial runs the whole attack, sequence assignment included.
    modules = modules_after(FIG6_TRIAL, REPRO_TRANSPORT=transport)
    assert f"repro.transport.{transport}" in modules
    assert loaded_under(modules, ["numpy", "scipy"]) == []


def test_infer_runner_skips_packet_stack():
    modules = modules_after("import repro.infer.campaign")
    assert loaded_under(modules, ["repro.h2", "repro.tcp", "repro.netsim"]) == []


def all_modules() -> List[str]:
    """Every module under ``src/repro`` except the ``-m`` entry point."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


@pytest.mark.slow
def test_every_module_imports_on_its_own():
    # A lazy package root no longer fixes the import order, so a cycle
    # between two packages shows only when one of them is imported first.
    failures = {}
    for name in all_modules():
        completed = run_fresh(f"import {name}")
        if completed.returncode != 0:
            failures[name] = completed.stderr.strip().splitlines()[-1]
    assert failures == {}
