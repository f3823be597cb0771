"""Opt-in vectorized backend selection.

The fast backend has one kernel: :mod:`repro.fastpath.analytic`
evaluates whole analytic campaign shards as array programs (see
:func:`evaluate_shard_analytic`) instead of one Python loop per
session.  Nothing else reads the backend: the packet-level simulator
has a single event-dispatch path, and the size-inference study
(:mod:`repro.infer`) always builds its observations and features as
numpy batches.

Selection is explicit and layered: a CLI ``--backend`` argument wins,
else the ``REPRO_BACKEND`` environment variable, else ``python``.  The
environment hop is what carries the choice into spawned campaign
workers and experiment subprocesses.  Both backends are bit-identical
by construction — golden masters, the determinism matrix and campaign
digests are asserted equal across backends in CI — so ``fast`` changes
wall-clock time and nothing else.
"""

from __future__ import annotations

import os

#: Environment variable carrying the backend choice across processes.
BACKEND_ENV = "REPRO_BACKEND"

#: Recognised backend names.
BACKENDS = ("python", "fast")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve the effective backend (argument → env → ``python``)."""
    value = backend or os.environ.get(BACKEND_ENV) or "python"
    value = value.strip().lower()
    if value not in BACKENDS:
        raise ValueError(
            f"unknown backend {value!r}; expected one of {BACKENDS}"
        )
    return value


def fast_backend_active(backend: str | None = None) -> bool:
    """Whether the resolved backend is the vectorized fast path."""
    return resolve_backend(backend) == "fast"
