"""Opt-in vectorized backend selection.

The fast backend replaces per-session Python loops with numpy batch
kernels behind the *existing* interfaces:

* :mod:`repro.fastpath.analytic` evaluates whole campaign shards as
  array programs (see :func:`evaluate_shard_analytic`);
* :mod:`repro.fastpath.infer` extracts size-inference features for a
  whole batch of observations in a handful of array operations.

The packet-level simulator has a single event-dispatch path and runs
the same code under either backend.

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
