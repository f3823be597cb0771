"""The benchmark's four workloads and the child process that times one.

Every workload is a closed loop with one client: request *i* starts when
request *i - 1* returns, and the loop runs until its requests have
taken the run's seconds of wall time.  A request is one call a user of
the testbed makes into its public API:

* ``paper-tcp`` / ``paper-quic`` — one ``summarize_trial`` over
  ``VolunteerWorkload(seed)``: the fig6 slice (80 % targeted drops)
  when ``i % 4 == 3``, else the table1 slice (50 ms GET spacing);
* ``campaign-ckpt`` — one ``run_campaign`` of 2 shards × 1000 analytic
  sessions on 2 supervised workers with a fresh checkpoint directory;
* ``infer`` — one ``run_infer_campaign`` of 2 shards × 12 sessions,
  serial, no checkpoint.

Inputs come only from the seed: campaign/infer request *i* uses
population seed ``seed * 1000 + i``.

Outputs are checked three ways: per-request digests against
``expected.json`` (default seeds), a sample of requests recomputed
through an independent code path (the other backend, or the serial
in-process campaign), and — in a traced run — the traced re-run must
reproduce the untraced digests.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

BACKEND_ENV = "REPRO_BACKEND"


@contextmanager
def backend(name: str) -> Iterator[None]:
    """Pin ``REPRO_BACKEND`` for the calls inside the block."""
    saved = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = name
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = saved


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _other(backend_name: str) -> str:
    return "fast" if backend_name == "python" else "python"


class PaperWorkload:
    """Paper trials: the unit of every paper experiment."""

    family = "paper"
    unit = "trials"

    def __init__(self, name: str, seed: int, work_dir: str, spec: "Spec"):
        from repro.experiments.harness import summarize_trial
        from repro.experiments.hotpath import reference_config
        from repro.web.workload import VolunteerWorkload

        self.name = name
        self.work_dir = work_dir
        self.backend = spec.backend
        self._summarize = summarize_trial
        self._volunteers = VolunteerWorkload(seed=seed)
        self._configs = {
            kind: reference_config(kind) for kind in ("table1", "fig6")
        }

    @staticmethod
    def kind(index: int) -> str:
        return "fig6" if index % 4 == 3 else "table1"

    def units(self, index: int) -> int:
        return 1

    def warm_up(self) -> None:
        self.request(3)  # the first fig6 trial: the heaviest shape

    def request(self, index: int, profile_dir: Optional[str] = None):
        return self._summarize(
            index, self._volunteers, self._configs[self.kind(index)]
        )

    def digest(self, summary) -> str:
        """sha256 of the trial summary's canonical JSON."""
        return _sha(json.dumps(
            dataclasses.asdict(summary), sort_keys=True, default=repr
        ))

    def reference(self, index: int) -> str:
        """The same trial on the other backend (event batching flipped)."""
        with backend(_other(self.backend)):
            return self.digest(self.request(index))

    def reference_indices(self, count: int, rng: random.Random) -> List[int]:
        """One table1 and one fig6 trial among those run."""
        table1 = [i for i in range(count) if self.kind(i) == "table1"]
        fig6 = [i for i in range(count) if self.kind(i) == "fig6"]
        return [rng.choice(group) for group in (table1, fig6) if group]


class CampaignWorkload:
    """Supervised, checkpointed analytic campaigns on 2 workers."""

    family = "campaign"
    unit = "sessions"
    shard_size = 1000
    shards_per_request = 2

    def __init__(self, name: str, seed: int, work_dir: str, spec: "Spec"):
        from repro.campaign import engine

        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.workers = spec.workers
        self._engine = engine
        self._checkpoint = None

    def config(self, index: int, shards: Optional[int] = None):
        shards = self.shards_per_request if shards is None else shards
        return self._engine.CampaignConfig(
            sessions=shards * self.shard_size,
            shard_size=self.shard_size,
            seed=self.seed * 1000 + index,
        )

    def units(self, index: int) -> int:
        return self.shards_per_request * self.shard_size

    def warm_up(self) -> None:
        # One shard: the executor runs it in-process, warming the
        # parent's checkpoint and merge paths without a spawn.
        self._run(self.config(-1, shards=1), self._fresh_dir("warm-up"))

    def request(self, index: int, profile_dir: Optional[str] = None):
        config = self.config(index)
        task = None
        if profile_dir is not None:
            from ledger import ProfiledShardTask

            out_dir = os.path.join(profile_dir, f"call-{index}")
            os.makedirs(out_dir)
            task = ProfiledShardTask(self._engine.ShardTask(config), out_dir)
        return self._run(config, self._fresh_dir(f"ckpt-{index}"), task)

    def _fresh_dir(self, label: str) -> str:
        path = os.path.join(self.work_dir, label)
        counter = 0
        while os.path.exists(path):
            counter += 1
            path = os.path.join(self.work_dir, f"{label}.{counter}")
        return path

    def _run(self, config, checkpoint_dir: str, task=None):
        self._checkpoint = self._engine.checkpoint_path(config, checkpoint_dir)
        return self._engine.run_campaign(
            config, workers=self.workers, checkpoint_dir=checkpoint_dir,
            shard_task=task,
        )

    def last_checkpoint_bytes(self) -> int:
        return os.path.getsize(self._checkpoint)

    def digest(self, result) -> str:
        return result.digest()

    def reference(self, index: int) -> str:
        """The same campaign serial, in-process, on the numpy kernel."""
        return self._engine.run_campaign(
            self.config(index), workers=1, backend="fast"
        ).digest()

    def reference_indices(self, count: int, rng: random.Random) -> List[int]:
        return list(range(count))  # the reference path is ~100x faster


class InferWorkload:
    """Statistical size inference (``repro infer``) at small scale."""

    family = "infer"
    unit = "sessions"
    sessions = 24
    shard_size = 12

    def __init__(self, name: str, seed: int, work_dir: str, spec: "Spec"):
        from repro.infer import campaign

        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.backend = spec.backend
        self._campaign = campaign

    def config(self, index: int, sessions: Optional[int] = None):
        return self._campaign.InferCampaignConfig(
            sessions=self.sessions if sessions is None else sessions,
            shard_size=self.shard_size,
            seed=self.seed * 1000 + index,
        )

    def units(self, index: int) -> int:
        return self.sessions

    def warm_up(self) -> None:
        self._campaign.run_infer_campaign(self.config(-1, sessions=1), workers=1)

    def request(self, index: int, profile_dir: Optional[str] = None):
        return self._campaign.run_infer_campaign(self.config(index), workers=1)

    def digest(self, result) -> str:
        return result.summary.digest()

    def reference(self, index: int) -> str:
        """The same frontier with features from the other backend."""
        with backend(_other(self.backend)):
            return self.digest(self.request(index))

    def reference_indices(self, count: int, rng: random.Random) -> List[int]:
        return [rng.randrange(count)]


@dataclasses.dataclass(frozen=True)
class Spec:
    """How the runner launches one workload."""

    factory: type
    seed: int
    backend: str
    transport: str
    workers: int

    def env(self) -> Dict[str, str]:
        return {
            "REPRO_BACKEND": self.backend,
            "REPRO_TRANSPORT": self.transport,
            "REPRO_WORKERS": str(self.workers),
        }


WORKLOADS: Dict[str, Spec] = {
    "paper-tcp": Spec(PaperWorkload, 7, "python", "tcp", 1),
    "paper-quic": Spec(PaperWorkload, 7, "fast", "quic", 1),
    "campaign-ckpt": Spec(CampaignWorkload, 7, "python", "tcp", 2),
    "infer": Spec(InferWorkload, 2020, "python", "tcp", 1),
}


def make(name: str, seed: int, work_dir: str):
    spec = WORKLOADS[name]
    return spec.factory(name, seed, work_dir, spec)


# ---------------------------------------------------------------------------
# The timed child
# ---------------------------------------------------------------------------


#: Seconds the calibration kernel takes on the reference host (a quiet
#: 2 GHz Xeon vCPU): the scale of host-normalized timings.
CALIBRATION_REF_S = 0.010


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes right now.

    The kernel (integer arithmetic and dict stores, nothing that
    outlives it, collector off) never changes, so its time tracks only
    the host's current speed.  On a shared host that speed swings by up
    to 2x within minutes; dividing each timing by the host factor of the
    samples around it keeps the benchmark's medians comparable.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = 0, {}
        for step in range(80_000):
            total += step * 3 % 7
            table[step & 1023] = total
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference host the host ran between two
    calibration samples."""
    return (before + after) / 2 / CALIBRATION_REF_S


@dataclasses.dataclass
class LoopRun:
    outputs: List[Any]
    #: Wall time of each request, and the same divided by the host
    #: factor of the calibration samples taken just before and after it.
    latencies_s: List[float]
    normalized_s: List[float]
    units: int
    failed_units: int

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)


def closed_loop(workload, seconds: float) -> LoopRun:
    """Issue requests 0, 1, 2 … back to back until they have taken
    ``seconds`` of wall time (at least one request).

    Only the request calls are timed; a calibration sample runs between
    requests, and outputs are digested after the loop.
    """
    outputs: List[Any] = []
    latencies: List[float] = []
    normalized: List[float] = []
    units = failed = 0
    before = calibrate()
    index = 0
    while True:
        began = time.perf_counter()
        try:
            output = workload.request(index)
        except Exception:
            print(f"{workload.name}: request {index} failed:", file=sys.stderr)
            traceback.print_exc()
            output = None
            failed += workload.units(index)
        latency = time.perf_counter() - began
        after = calibrate()
        latencies.append(latency)
        normalized.append(latency / host_factor(before, after))
        before = after
        outputs.append(output)
        units += workload.units(index)
        index += 1
        if sum(latencies) >= seconds:
            break
    return LoopRun(outputs, latencies, normalized, units, failed)


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process (and of its joined workers), MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timings(units: int, latencies: List[float]) -> Dict[str, float]:
    """Throughput and latency percentiles of one closed loop."""
    return {
        "ops_per_s": units / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
    }


def check(workload, seed: int, digests: List[Optional[str]],
          expected: Optional[Dict[str, Any]],
          traced: Optional[List[Optional[str]]]) -> List[str]:
    """Every output problem found, as one line each (empty = correct)."""
    name = workload.name
    problems = []
    if expected is not None and expected["seeds"].get(name) == seed:
        for index, (got, want) in enumerate(
            zip(digests, expected["digests"][name])
        ):
            if got is not None and got[:len(want)] != want:
                problems.append(
                    f"{name}: request {index} digest {got[:16]} does not "
                    f"match expected.json ({want})"
                )
    rng = random.Random(seed)
    for index in workload.reference_indices(len(digests), rng):
        if digests[index] is None:
            continue
        reference = workload.reference(index)
        if reference != digests[index]:
            problems.append(
                f"{name}: request {index} digest {digests[index][:16]} "
                f"differs from the reference path ({reference[:16]})"
            )
    if traced is not None:
        for index, (got, again) in enumerate(zip(digests, traced)):
            if got != again:
                problems.append(
                    f"{name}: traced request {index} digest "
                    f"{str(again)[:16]} differs from untraced {str(got)[:16]}"
                )
    return problems


#: Share of a traced run's time budget spent on the untraced pass; the
#: traced re-run of the same requests takes the rest (cProfile costs
#: 2-3x).
UNTRACED_SHARE = 0.3


def measure(workload, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Run the closed loop (and the traced re-run) and check outputs."""
    loop = closed_loop(workload, seconds * UNTRACED_SHARE if trace else seconds)
    rss = peak_rss_mb(include_children=workload.family == "campaign")
    digests = [
        workload.digest(output) if output is not None else None
        for output in loop.outputs
    ]
    traced_digests = None
    if trace:
        import ledger

        traced = ledger.traced_rerun(workload, len(loop.outputs), loop.wall_s)
        traced_digests = [
            workload.digest(output) if output is not None else None
            for output in traced.outputs
        ]
        metrics, raw = traced.metrics, {}
    else:
        raw = timings(loop.units, loop.latencies_s)
        metrics = dict(timings(loop.units, loop.normalized_s), peak_rss_mb=rss)
    problems = check(workload, seed, digests, expected, traced_digests)
    for problem in problems:
        print(problem, file=sys.stderr)
    failed = loop.units if problems else loop.failed_units
    import numpy

    return {
        "correct": not problems,
        "attempted": loop.units,
        "failed": failed,
        "metrics": metrics,
        "raw_metrics": raw,
        "host_factor": loop.wall_s / sum(loop.normalized_s),
        "unit": workload.unit,
        "requests": len(loop.outputs),
        "wall_s": loop.wall_s,
        "digest": _sha("\n".join(str(d) for d in digests)),
        "request_digests": [d[:16] if d else None for d in digests],
        "problems": problems,
        "numpy": numpy.__version__,
    }


def child_main(name: str, seed: int, seconds: float, trace: bool,
               work_dir: str, probe: bool, expected_path: Optional[str]) -> int:
    """Set up, hand-shake ``ready``, wait for ``go``, measure, report.

    The ``ready`` line carries the calibration samples taken around the
    set-up, so the runner can subtract them and normalize set-up time.
    """
    before = calibrate()
    workload = make(name, seed, work_dir)
    workload.warm_up()
    after = calibrate()
    print(f"ready {before!r} {after!r}", flush=True)
    if probe:
        return 0
    sys.stdin.readline()
    expected = None
    if expected_path and os.path.exists(expected_path):
        with open(expected_path, encoding="utf-8") as handle:
            expected = json.load(handle)
    record = measure(workload, seed, seconds, trace, expected)
    print(json.dumps(record), flush=True)
    return 0


def expect_main(name: str, count: int, work_dir: str) -> int:
    """Print the digests of requests 0 .. count-1 at the default seed."""
    workload = make(name, WORKLOADS[name].seed, work_dir)
    digests = [workload.reference(index)[:16] for index in range(count)]
    print(json.dumps(digests), flush=True)
    return 0
