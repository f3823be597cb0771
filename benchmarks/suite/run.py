"""One benchmark for the testbed: four workloads, end-to-end metrics, a
per-layer cost ledger.

Run from the repository root:

    python3 benchmarks/suite/run.py                  # all workloads, timed
    python3 benchmarks/suite/run.py --workload infer --seed 3 --seconds 15
    python3 benchmarks/suite/run.py --trace 1        # per-layer ledger
    python3 benchmarks/suite/run.py --runs 5 --json A.json
    python3 benchmarks/suite/run.py compare A.json B.json
    python3 benchmarks/suite/run.py expect           # re-record expected.json

Each run launches its workload in fresh interpreters: four set-up probes
and one timed child (``--one``), so caches and imports never leak
between workloads and ``setup_s`` is the median of five launches timed
from spawn to a ``ready`` handshake.  The timed child then runs the
closed loop and checks its outputs (see ``workloads.py``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name → value and unit); with several runs
or workloads the metric names are prefixed ``<workload>.``.

Metric names, units, bounds and the default run length come from the
repository's ``BENCHMARK.json``.  Scratch files (checkpoints, worker
profiles) live under ``.suite_work/`` at the repository root and are
removed at exit; results are written only to ``--json PATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
EXPECTED = SUITE / "expected.json"
WORK_ROOT = ROOT / ".suite_work"

#: Fresh-interpreter launches whose spawn-to-ready times give setup_s.
SETUP_LAUNCHES = 5
#: Wall-clock budget of one workload run; children still running are killed.
BUDGET_S = 170.0
#: Requests per workload recorded by ``expect`` (several times what a
#: default-length run issues, so faster code stays covered).
EXPECT_COUNTS = {
    "paper-tcp": 512, "paper-quic": 256, "campaign-ckpt": 256, "infer": 128,
}


class SuiteError(RuntimeError):
    """A run could not produce a result."""


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_source() -> None:
    """The benchmark builds nothing: it needs the repo's ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SuiteError(
            f"no src/repro under {ROOT}: run from a full checkout"
        )


# ---------------------------------------------------------------------------
# Launching children
# ---------------------------------------------------------------------------


def child_env(workload: str, work_dir: str) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` variable, plus the
    workload's pinned backend/transport/workers; temp files go to
    ``work_dir``."""
    import workloads

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workloads.WORKLOADS[workload].env())
    env["TMPDIR"] = work_dir
    # Interpreter default: cache bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@contextlib.contextmanager
def scratch_dir(name: str) -> Iterator[str]:
    """A fresh directory under ``.suite_work/``, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{name}-", dir=str(WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(args: List[str], env: Dict[str, str], deadline: float,
           probe: bool) -> Tuple[float, float, Optional[str]]:
    """Start one child and time it from spawn to ``ready``.

    Returns (raw set-up seconds, host-normalized set-up seconds, last
    stdout line).  The child's two calibration samples are excluded
    from the set-up time and give its host factor.  The child runs in
    its own session so a timeout kills it together with any worker it
    spawned.
    """
    import workloads

    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SuiteError("time budget exhausted before launch")
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(SUITE / "run.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    watchdog = threading.Timer(remaining, _kill_group, (process,))
    watchdog.start()
    try:
        ready = None
        for line in process.stdout:
            if line.startswith("ready "):
                ready = time.perf_counter() - start, line.split()[1:]
                break
        if ready is not None and not probe:
            process.stdin.write("go\n")
            process.stdin.flush()
        process.stdin.close()
        lines = process.stdout.read().strip().splitlines()
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            _kill_group(process)
            process.wait()
        process.stdout.close()
    if ready is None or process.returncode != 0:
        raise SuiteError(
            f"child {' '.join(args[:2])} exited with {process.returncode}"
            + (" before ready" if ready is None else "")
        )
    elapsed, (before, after) = ready[0], map(float, ready[1])
    setup = elapsed - before - after
    return (setup, setup / workloads.host_factor(before, after),
            lines[-1] if lines else None)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, expected: Optional[str],
                 deadline: float) -> Dict[str, Any]:
    """One measured run of one workload; returns its record."""
    with scratch_dir(name) as work_dir:
        env = child_env(name, work_dir)
        base = [
            "--one", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--work-dir", work_dir,
        ]
        if expected:
            base += ["--expected", expected]
        launches = 1 if (trace or quick) else SETUP_LAUNCHES
        setups, normalized = [], []
        for launch_index in range(launches):
            probe = launch_index < launches - 1
            setup, setup_normalized, line = launch(
                base + (["--probe"] if probe else []), env, deadline, probe
            )
            setups.append(setup)
            normalized.append(setup_normalized)
    if line is None:
        raise SuiteError(f"{name}: child printed no result")
    record = json.loads(line)
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(normalized)
        record["raw_metrics"]["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    record.update(workload=name, seed=seed, trace=int(trace),
                  seconds=seconds)
    return record


def with_units(record: Dict[str, Any], benchmark: Dict[str, Any]
               ) -> Dict[str, Dict[str, Any]]:
    """The record's metrics as name → {value, unit}, in BENCHMARK.json
    order; the names must match exactly."""
    declared = benchmark["per_layer" if record["trace"] else "end_to_end"]
    emitted = set(record["metrics"])
    names = [metric["name"] for metric in declared]
    if emitted != set(names):
        raise SuiteError(
            f"{record['workload']}: metric names differ from BENCHMARK.json "
            f"(missing {sorted(set(names) - emitted)}, "
            f"extra {sorted(emitted - set(names))})"
        )
    return {
        metric["name"]: {
            "value": record["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }


def describe(record: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> str:
    lines = [
        f"{record['workload']}  seed {record['seed']}  "
        f"{'traced' if record['trace'] else 'timed'}  "
        f"{record['requests']} requests / {record['attempted']} "
        f"{record['unit']} in {record['wall_s']:.2f} s  "
        f"failed {record['failed']}  digest {record['digest'][:12]}  "
        f"{'correct' if record['correct'] else 'INCORRECT'}"
    ]
    raw = record["raw_metrics"]
    for name, metric in metrics.items():
        if record["trace"] and metric["value"] == 0:
            continue  # not applicable to this workload
        line = f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}"
        if name in raw:
            line += f"  (raw {raw[name]:.6g}, host factor applied)"
        lines.append(line)
    return "\n".join(lines)


def host_info(load_before: Tuple[float, float, float],
              records: List[Dict[str, Any]]) -> Dict[str, Any]:
    import platform

    return {
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": records[0].get("numpy") if records else None,
        "machine": platform.machine(),
    }


def run_main(args: argparse.Namespace) -> int:
    import workloads

    require_source()
    benchmark = load_benchmark()
    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            raise SuiteError(
                f"unknown workload {name!r}; expected one of "
                f"{sorted(workloads.WORKLOADS)}"
            )
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    expected = args.expected or str(EXPECTED)
    load_before = os.getloadavg()
    records = []
    combined: Dict[str, Dict[str, Any]] = {}
    for run in range(args.runs):
        for name in names:
            base = args.seed if args.seed is not None else workloads.WORKLOADS[name].seed
            record = run_workload(
                name, base + run, seconds, bool(args.trace), args.quick,
                expected, deadline=time.monotonic() + BUDGET_S,
            )
            metrics = with_units(record, benchmark)
            record["metrics"] = {k: v["value"] for k, v in metrics.items()}
            record["fail_rate"] = record["failed"] / record["attempted"]
            records.append(record)
            print(describe(record, metrics), flush=True)
            prefix = "" if len(names) * args.runs == 1 else (
                f"{name}." if args.runs == 1 else f"{name}.run{run}."
            )
            combined.update({prefix + k: v for k, v in metrics.items()})
    if args.json:
        payload = {"host": host_info(load_before, records), "runs": records}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.json}")
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": combined,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def summarize(values: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile) of one set."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """better/worse/unchanged/unresolved for set ``b`` against set ``a``.

    Unresolved when either set's interquartile range exceeds ``bound``
    (as a share of its median); otherwise worse or better when ``b``'s
    median moved by more than ``bound`` of ``a``'s median.
    """
    (a_mid, a_q1, a_q3), (b_mid, b_q1, b_q3) = summarize(a), summarize(b)
    if (a_q3 - a_q1) > bound * abs(a_mid) or (b_q3 - b_q1) > bound * abs(b_mid):
        return "unresolved"
    change = (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(a_path: str, b_path: str, benchmark: Dict[str, Any]
            ) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both sets."""
    sets = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as handle:
            runs = [run for run in json.load(handle)["runs"] if not run["trace"]]
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for run in runs:
            grouped.setdefault(run["workload"], []).append(run)
        sets.append(grouped)
    rows = []
    for workload in sorted(set(sets[0]) & set(sets[1])):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in sets[0][workload]]
            b = [run["metrics"][name] for run in sets[1][workload]]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": summarize(a),
                "b": summarize(b),
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two result sets written by --json.",
    )
    parser.add_argument("a", help="baseline set (e.g. the parent commit)")
    parser.add_argument("b", help="candidate set")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b, load_benchmark())
    row_format = "{:<14} {:<12} {:>30} {:>30} {:>8}  {}"
    print(row_format.format("workload", "metric", "A median [q1, q3]",
                            "B median [q1, q3]", "change", "verdict"))
    for row in rows:
        (a_mid, a_q1, a_q3), (b_mid, b_q1, b_q3) = row["a"], row["b"]
        change = (b_mid - a_mid) / a_mid * 100 if a_mid else 0.0
        print(row_format.format(
            row["workload"], row["metric"],
            f"{a_mid:.4g} [{a_q1:.4g}, {a_q3:.4g}]",
            f"{b_mid:.4g} [{b_q1:.4g}, {b_q3:.4g}]",
            f"{change:+.1f}%", row["verdict"],
        ))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------


def expect_main() -> int:
    """Re-record ``expected.json``: digests of the first requests of every
    workload at its default seed (only after an intended output change)."""
    import workloads

    require_source()
    digests = {}
    for name, count in EXPECT_COUNTS.items():
        with scratch_dir(name) as work_dir:
            output = subprocess.run(
                [sys.executable, str(SUITE / "run.py"), "--one", name,
                 "--expect", str(count), "--work-dir", work_dir],
                env=child_env(name, work_dir), cwd=str(ROOT), check=True,
                stdout=subprocess.PIPE, text=True,
            ).stdout
        digests[name] = json.loads(output.strip().splitlines()[-1])
        print(f"{name}: {count} digests")
    payload = {
        "format": "benchmarks/suite expected digests v1",
        "seeds": {name: spec.seed for name, spec in workloads.WORKLOADS.items()},
        "digests": digests,
    }
    EXPECTED.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="The testbed benchmark (see benchmarks/suite/README.md).",
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="closed-loop length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--json", default=None,
                        help="write every run record to this file")
    parser.add_argument("--quick", action="store_true",
                        help="one set-up launch instead of five (tests)")
    parser.add_argument("--expected", default=None,
                        help="expected-digest file (default: expected.json)")
    # Child mode, used by the runner itself.
    parser.add_argument("--one", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--expect", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["compare"]:
            return compare_main(argv[1:])
        if argv[:1] == ["expect"]:
            return expect_main()
        args = parse(argv)
        if args.one:
            require_source()
            sys.path.insert(0, str(SRC))
            import workloads

            if args.expect:
                return workloads.expect_main(args.one, args.expect, args.work_dir)
            return workloads.child_main(
                args.one, args.seed, args.seconds, bool(args.trace),
                args.work_dir, args.probe, args.expected,
            )
        return run_main(args)
    except SuiteError as error:
        print(f"run.py: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Spawned campaign workers import this file as __mp_main__; only the
    # stdlib imports above run there.
    raise SystemExit(main())
