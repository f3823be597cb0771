"""Hot-path benchmark: single Table I and Fig. 6 reference trials.

Times the two canonical single-trial slices
(:mod:`repro.experiments.hotpath`) and writes a machine-readable
``BENCH_hotpath.json`` next to the repository root.  The JSON embeds

* min/mean wall time per slice over a few repetitions,
* the profiler snapshot of one profiled pass (event/packet/frame
  counters, phase timers, HPACK cache hit rates),
* peak memory (process RSS high-water mark plus the tracemalloc
  Python-heap peak of one untimed pass),
* the checked-in pre-optimization reference timings and the implied
  speedup.

Runs two ways:

* ``python benchmarks/bench_hotpath.py [--quick] [--json PATH]`` —
  standalone script (what the CI smoke job runs);
* ``pytest benchmarks/bench_hotpath.py`` — the same measurement as a
  test, honouring ``REPRO_TRIALS`` via ``conftest.trials``.

Wall-clock comparisons against the checked-in reference only hold on
comparable hardware, so the speedup assertion (see
``TARGET_SPEEDUP``) fires only on hosts with at least 4 cores (or when
``REPRO_BENCH_ASSERT_SPEEDUP=1``), mirroring
``bench_parallel_executor.py``.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

if __package__ is None or __package__ == "":
    # Script mode: make ``repro`` importable without PYTHONPATH=src.
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.experiments.hotpath import KINDS, profile_reference, run_reference_trial
from repro.transport import TRANSPORT_ENV, TRANSPORTS

#: Reference single-trial wall times (seconds) at the commit this
#: baseline was rebased to, measured on the development machine (min of
#: 5 warm repetitions).  Rebased from the original 1e786f8
#: pre-optimization numbers so speedups are measured against the real
#: current baseline, not a two-generations-old one.
REFERENCE = {
    "commit": "1abc03a",
    "table1_s": 0.1353,
    "fig6_s": 0.1884,
}

#: Acceptance target: single-trial time vs. the reference, as a
#: regression gate (>= 0.9x of the rebased baseline).  Per-event cost is
#: dominated by protocol logic (TCP/H2 processing), not dispatch.
TARGET_SPEEDUP = 0.9

DEFAULT_REPS = 5
QUICK_REPS = 2


def time_slice(kind: str, reps: int) -> dict:
    """Wall times for ``reps`` runs of one reference slice (after a
    warm-up run that also primes the HPACK caches)."""
    run_reference_trial(kind)
    samples = []
    for trial in range(reps):
        start = time.perf_counter()
        run_reference_trial(kind, trial=trial)
        samples.append(time.perf_counter() - start)
    return {
        "min_s": round(min(samples), 6),
        "mean_s": round(sum(samples) / len(samples), 6),
        "samples_s": [round(sample, 6) for sample in samples],
    }


def measure_memory() -> dict:
    """Peak-memory figures for one pass over both reference slices.

    Runs *after* the timed repetitions so tracemalloc's allocation
    overhead never contaminates the wall-clock samples.  RSS is the
    process high-water mark (monotone over the whole bench run);
    ``tracemalloc_peak_kb`` is the Python-heap peak of this pass alone
    — the number that bounds a single trial's live objects.
    """
    from repro import profiling

    with profiling.traced_memory() as traced:
        for kind in KINDS:
            run_reference_trial(kind)
    return {
        "peak_rss_kb": profiling.peak_rss_kb(),
        "tracemalloc_peak_kb": traced["tracemalloc_peak_kb"],
    }


class _transport_env:
    """Temporarily pin ``REPRO_TRANSPORT`` for one measurement pass.

    The reference slices build their stack through
    :class:`~repro.experiments.harness.TrialConfig`'s env-resolved
    transport, so flipping the variable times the same workload over
    TCP and the QUIC-like datagram transport in one process.
    """

    def __init__(self, transport: str) -> None:
        self._transport = transport
        self._saved = None

    def __enter__(self):
        self._saved = os.environ.get(TRANSPORT_ENV)
        os.environ[TRANSPORT_ENV] = self._transport
        return self

    def __exit__(self, *exc):
        if self._saved is None:
            os.environ.pop(TRANSPORT_ENV, None)
        else:
            os.environ[TRANSPORT_ENV] = self._saved
        return False


def run_bench(reps: int) -> dict:
    """Measure both slices plus one profiled pass; returns the payload
    written to ``BENCH_hotpath.json``."""
    timings = {kind: time_slice(kind, reps) for kind in KINDS}
    profiler, _ = profile_reference()
    speedups = {
        kind: round(REFERENCE[f"{kind}_s"] / timings[kind]["min_s"], 2)
        for kind in KINDS
    }
    # Per-transport timings of the same slices: how much the QUIC-like
    # per-stream recovery machinery costs relative to the TCP byte
    # stream on identical workloads.
    transport_timings = {}
    for transport in TRANSPORTS:
        with _transport_env(transport):
            transport_timings[transport] = {
                kind: time_slice(kind, reps) for kind in KINDS
            }
    transports = {
        "timings": transport_timings,
        "slowdown_quic_vs_tcp": {
            kind: round(
                transport_timings["quic"][kind]["min_s"]
                / transport_timings["tcp"][kind]["min_s"],
                2,
            )
            for kind in KINDS
        },
    }
    return {
        "bench": "hotpath",
        "reps": reps,
        "timings": timings,
        "reference": dict(REFERENCE),
        "speedup_vs_reference": speedups,
        "target_speedup": TARGET_SPEEDUP,
        "transports": transports,
        "profile": profiler.snapshot(),
        "memory": measure_memory(),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }


def render_summary(payload: dict) -> str:
    lines = ["hot-path bench"]
    for kind in KINDS:
        timing = payload["timings"][kind]
        lines.append(
            f"  {kind:<8} min {timing['min_s'] * 1000.0:7.1f} ms"
            f"  (reference {payload['reference'][f'{kind}_s'] * 1000.0:7.1f} ms,"
            f" {payload['speedup_vs_reference'][kind]:.2f}x)"
        )
    transports = payload["transports"]
    lines.append(
        "  quic vs tcp:    "
        + ", ".join(
            f"{kind} {transports['slowdown_quic_vs_tcp'][kind]:.2f}x"
            for kind in KINDS
        )
        + "  (transport slowdown)"
    )
    return "\n".join(lines)


def speedup_assertable() -> bool:
    """Whether wall-clock speedup claims are meaningful on this host."""
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        return True
    return (os.cpu_count() or 1) >= 4


def default_json_path() -> Path:
    return Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_bench_hotpath():
    from conftest import trials

    reps = trials(DEFAULT_REPS)
    payload = run_bench(reps)
    path = default_json_path()
    write_json(payload, path)
    print()
    print(render_summary(payload))
    print(f"wrote {path}")

    # Structural checks hold on any machine: both slices measured, the
    # profiled pass saw real work, and the JSON round-trips.
    assert set(payload["timings"]) == set(KINDS)
    counters = payload["profile"]["counters"]
    assert counters["sim.events"] > 0
    assert counters["net.packets"] > 0
    assert payload["memory"]["peak_rss_kb"] > 0
    assert payload["memory"]["tracemalloc_peak_kb"] > 0
    parsed = json.loads(path.read_text())
    assert parsed["speedup_vs_reference"].keys() == set(KINDS)
    assert set(payload["transports"]["timings"]) == set(TRANSPORTS)
    for transport in TRANSPORTS:
        assert set(payload["transports"]["timings"][transport]) == set(KINDS)
        for kind in KINDS:
            assert payload["transports"]["timings"][transport][kind]["min_s"] > 0

    # The wall-clock claims need comparable hardware.
    if speedup_assertable():
        speedup = payload["speedup_vs_reference"]["table1"]
        assert speedup >= TARGET_SPEEDUP, (
            f"expected >={TARGET_SPEEDUP}x over the {REFERENCE['commit']} "
            f"reference on the Table I slice, got {speedup:.2f}x"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"fewer repetitions ({QUICK_REPS} instead of {DEFAULT_REPS})",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="explicit repetition count"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="output path (default: BENCH_hotpath.json at the repo root)",
    )
    args = parser.parse_args(argv)

    reps = args.reps if args.reps is not None else (
        QUICK_REPS if args.quick else DEFAULT_REPS
    )
    payload = run_bench(reps)
    path = args.json if args.json is not None else default_json_path()
    write_json(payload, path)
    print(render_summary(payload))
    print(f"wrote {path}")

    if speedup_assertable():
        speedup = payload["speedup_vs_reference"]["table1"]
        if speedup < TARGET_SPEEDUP:
            print(
                f"WARNING: table1 speedup {speedup:.2f}x below the "
                f"{TARGET_SPEEDUP}x target (reference machine differs?)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
