"""Campaign benchmark: sessions/sec, worker scaling and peak memory.

Runs the analytic-mode campaign engine (:mod:`repro.campaign`) at a
population scale the per-trial experiments never reach and writes a
machine-readable ``BENCH_campaign.json`` next to the repository root.
The JSON embeds

* wall time and sessions/sec for each worker count (1, 2, and 4 on
  hosts with at least 4 cores), all over the *same* campaign config,
* the digest of every run — bit-identical across worker counts by
  construction, and asserted here,
* peak memory: the process RSS high-water mark (children included) and
  the tracemalloc Python-heap peak of a 2k- vs. a 32k-session serial
  campaign — the pair that demonstrates peak heap is bounded and
  independent of session count (asserted via an absolute ceiling),
* the host fingerprint (python, cpus, machine).

Runs two ways:

* ``python benchmarks/bench_campaign.py [--quick] [--json PATH]`` —
  standalone script (what the CI bench-campaign job runs);
* ``pytest benchmarks/bench_campaign.py`` — a scaled-down version of
  the same measurement as a test.
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

from repro import profiling
from repro.campaign import CampaignConfig, run_campaign

DEFAULT_SESSIONS = 100_000
QUICK_SESSIONS = 20_000
SHARD_SIZE = 2_000

#: Parallel-scaling floors, per worker count.  Only enforced when the
#: host actually has at least that many cores — oversubscribed workers
#: cannot scale and their numbers are recorded but never flagged.
SCALING_FLOOR = {2: 1.2, 4: 1.8}

#: Absolute Python-heap ceiling for the memory-independence check: the
#: 32k-session probe campaign must peak below this.  Streaming columnar
#: aggregation peaks in the low hundreds of KiB; retaining even ~100
#: bytes per session (one small dict) would exceed 3 MiB.
MEMORY_PEAK_LIMIT_KB = 2_048


def worker_counts() -> list:
    counts = [1, 2]
    if (os.cpu_count() or 1) >= 4:
        counts.append(4)
    return counts


def time_campaign(config: CampaignConfig, workers: int) -> dict:
    start = time.perf_counter()
    result = run_campaign(config, workers=workers)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 3),
        "sessions_per_sec": round(config.sessions / wall, 1),
        "digest": result.digest(),
        "shards": result.shards,
    }


def measure_memory(seed: int) -> dict:
    """Python-heap peaks of a 2k- and a 16x-larger serial campaign.

    Both run in-process (workers=1) so tracemalloc sees every
    allocation the fold makes, and both use the *same shard count* —
    the large campaign packs 16x the sessions into each shard.
    Streaming columnar aggregation keeps no per-session state (each
    session folds into fixed-width integer arrays and is dropped), so
    the large campaign's heap peak stays in the low hundreds of KiB —
    transient garbage between gc passes, bounded, and asserted against
    an absolute ceiling rather than a noise-prone ratio.  O(sessions)
    aggregation (one retained object per session) would exceed the
    ceiling at this scale.
    """
    small = CampaignConfig(sessions=2_000, shard_size=500, seed=seed)
    large = CampaignConfig(sessions=32_000, shard_size=8_000, seed=seed)
    with profiling.traced_memory() as small_trace:
        run_campaign(small, workers=1)
    with profiling.traced_memory() as large_trace:
        run_campaign(large, workers=1)
    small_kb = small_trace["tracemalloc_peak_kb"]
    large_kb = large_trace["tracemalloc_peak_kb"]
    return {
        "peak_rss_kb": profiling.peak_rss_kb(include_children=True),
        "tracemalloc_small_kb": small_kb,
        "tracemalloc_large_kb": large_kb,
        "sessions_small": small.sessions,
        "sessions_large": large.sessions,
        "peak_limit_kb": MEMORY_PEAK_LIMIT_KB,
    }


def run_bench(sessions: int) -> dict:
    config = CampaignConfig(sessions=sessions, shard_size=SHARD_SIZE, seed=7)
    throughput = {
        str(workers): time_campaign(config, workers)
        for workers in worker_counts()
    }
    digests = {entry["digest"] for entry in throughput.values()}
    serial = throughput["1"]["sessions_per_sec"]
    # Worker scaling is only meaningful when every worker gets a core:
    # ``cpus`` rides along so check() can skip oversubscribed counts.
    scaling = {"cpus": os.cpu_count() or 1}
    scaling.update(
        {
            f"speedup_x{workers}": round(
                throughput[workers]["sessions_per_sec"] / serial, 2
            )
            for workers in throughput
            if workers != "1"
        }
    )
    return {
        "bench": "campaign",
        "campaign": {
            "sessions": config.sessions,
            "shard_size": config.shard_size,
            "shards": config.shard_count,
            "seed": config.seed,
            "mode": config.mode,
        },
        "digest_identical_across_workers": len(digests) == 1,
        "digest": throughput["1"]["digest"],
        "throughput": throughput,
        "scaling": scaling,
        "memory": measure_memory(seed=11),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
    }


def render_summary(payload: dict) -> str:
    lines = [f"campaign bench ({payload['campaign']['sessions']:,} sessions,"
             f" {payload['campaign']['shards']} shards)"]
    for workers, entry in sorted(payload["throughput"].items(), key=lambda
                                 item: int(item[0])):
        lines.append(
            f"  workers={workers}  {entry['wall_s']:7.2f} s"
            f"  {entry['sessions_per_sec']:>10,.0f} sessions/s"
        )
    memory = payload["memory"]
    lines.append(
        f"  peak RSS {memory['peak_rss_kb']:,} KB; heap peak "
        f"{memory['tracemalloc_small_kb']:,.0f} KB "
        f"({memory['sessions_small']:,} sessions) -> "
        f"{memory['tracemalloc_large_kb']:,.0f} KB "
        f"({memory['sessions_large']:,} sessions, "
        f"limit {memory['peak_limit_kb']:,} KB)"
    )
    return "\n".join(lines)


def default_json_path() -> Path:
    return Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check(payload: dict) -> list:
    """Structural failures (empty when the bench is healthy)."""
    failures = []
    if not payload["digest_identical_across_workers"]:
        failures.append("digests differ across worker counts")
    cpus = payload["scaling"]["cpus"]
    for workers, floor in SCALING_FLOOR.items():
        observed = payload["scaling"].get(f"speedup_x{workers}")
        if observed is not None and cpus >= workers and observed < floor:
            failures.append(
                f"x{workers} scaling {observed:.2f}x below the {floor:.1f}x "
                f"floor on a {cpus}-core host"
            )
    peak = payload["memory"]["tracemalloc_large_kb"]
    if peak > MEMORY_PEAK_LIMIT_KB:
        failures.append(
            f"heap peak {peak:,.0f} KB over a 32k-session shard exceeds "
            f"the {MEMORY_PEAK_LIMIT_KB:,} KB ceiling — aggregation is "
            "retaining per-session state"
        )
    return failures


def test_bench_campaign():
    payload = run_bench(QUICK_SESSIONS)
    path = default_json_path()
    write_json(payload, path)
    print()
    print(render_summary(payload))
    print(f"wrote {path}")

    assert check(payload) == []
    assert payload["throughput"]["1"]["sessions_per_sec"] > 0
    assert payload["scaling"]["cpus"] >= 1
    parsed = json.loads(path.read_text())
    assert parsed["digest"] == payload["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_SESSIONS:,} sessions instead of {DEFAULT_SESSIONS:,}",
    )
    parser.add_argument(
        "--sessions", type=int, default=None, help="explicit session count"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="output path (default: BENCH_campaign.json at the repo root)",
    )
    args = parser.parse_args(argv)

    sessions = args.sessions if args.sessions is not None else (
        QUICK_SESSIONS if args.quick else DEFAULT_SESSIONS
    )
    payload = run_bench(sessions)
    path = args.json if args.json is not None else default_json_path()
    write_json(payload, path)
    print(render_summary(payload))
    print(f"wrote {path}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
