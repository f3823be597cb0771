"""Per-layer cost ledger: where a workload's time goes, layer by layer.

A traced run re-executes the requests of an untraced run under
``cProfile`` and reports:

* **layer self time** — cProfile ``tottime`` grouped by the ``repro``
  module that owns each function (see :data:`LAYERS`).  Time in C
  builtins and in the standard library is charged to the ``repro``
  layer that called it, split over callers by the profiler's per-caller
  edges, so the shares of one run sum to 1.  numpy/scipy form their own
  layer; everything else (the benchmark itself) is ``other``;
* **spans** — cumulative time and call counts of the public functions at
  layer boundaries (``build_adversary_path``, ``Simulator.run_until``,
  ``Checkpoint.flush``, classifier ``fit``/``predict`` …), read from the
  same profile, so they carry the profiler's overhead;
* **counters** — the simulator/network/HTTP/2 counters that
  :func:`repro.profiling.profiled` already harvests per trial.

Campaign shards run in spawned workers, out of reach of the parent's
profiler: :class:`ProfiledShardTask` wraps the real shard task, profiles
it inside the worker and dumps the stats next to the run, and the parent
merges those files into its own.  It lives here, in an importable
module, because a spawned worker unpickles it by import path.

Timed runs never import this module, and nothing under ``src/`` is
modified: every layer is observed from outside through its public
functions.
"""

from __future__ import annotations

import cProfile
import glob
import os
import pstats
import sys
import sysconfig
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers of the stack, in report order.  ``other`` holds the benchmark's
#: own code and any third-party module that is not numpy/scipy.
LAYERS = (
    "simkernel.dispatch",
    "simkernel.trace",
    "simkernel.rng",
    "netsim",
    "tcp",
    "quic",
    "transport",
    "tls",
    "h2",
    "hpack",
    "web",
    "core",
    "campaign",
    "fastpath",
    "infer",
    "harness",
    "executor",
    "numpy",
    "other",
)

#: ``repro`` packages that form a layer of the same name.
_PACKAGE_LAYERS = frozenset(
    ("netsim", "tcp", "tls", "h2", "hpack", "web", "core", "campaign",
     "fastpath", "infer")
)

_PAPER_SPANS = ("build_path", "run_until", "summarize", "analyze")
_PAPER_COUNTERS = (
    ("count.sim_events_per_op", "sim.events"),
    ("count.net_packets_per_op", "net.packets"),
    ("count.h2_frames_per_op", "h2.frames_sent"),
    ("count.trace_records_per_op", "trace.records"),
    ("count.retransmitted_segments_per_op", "tcp.retransmitted_segments"),
)
_CLASSIFIERS = ("exact", "centroid", "knn", "logistic")
_INFER_SPANS = (
    ("evaluate_session", "observe", "extract_features")
    + tuple(f"fit.{name}" for name in _CLASSIFIERS)
    + tuple(f"predict.{name}" for name in _CLASSIFIERS)
    + ("fold",)
)


def metric_names() -> Tuple[str, ...]:
    """Every per-layer metric a traced run reports, for every workload.

    A metric that does not apply to a workload (a campaign span on a
    paper trial, say) is reported as 0.
    """
    names = ["trace_overhead"]
    for layer in LAYERS:
        names += [f"layer.{layer}.share", f"layer.{layer}.self_ms_per_op"]
    for span in _PAPER_SPANS:
        names += [f"span.{span}.ms_per_op", f"span.{span}.calls_per_op"]
    names += [name for name, _ in _PAPER_COUNTERS]
    names += [
        "ratio.retransmit_per_packet",
        "ratio.hpack_literal_hit",
        "ratio.batched_events",
        "derived.us_per_event",
        "span.shard_task.ms_per_shard",
        "span.checkpoint_flush.ms_per_shard",
        "span.merge.ms",
        "executor.overhead_ms_per_shard",
        "count.processes_spawned",
        "bytes.checkpoint_final",
    ]
    names += [f"span.{span}.ms_per_op" for span in _INFER_SPANS]
    return tuple(names)


# ---------------------------------------------------------------------------
# Layer attribution
# ---------------------------------------------------------------------------

FuncKey = Tuple[str, int, str]


def code_key(function: Callable) -> FuncKey:
    """The key cProfile files a Python function under."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _repro_layer(parts: List[str]) -> str:
    package = parts[0]
    module = parts[1] if len(parts) > 1 else ""
    if package == "simkernel":
        return {
            "trace.py": "simkernel.trace",
            "randomstream.py": "simkernel.rng",
        }.get(module, "simkernel.dispatch")
    if package == "transport":
        return "quic" if module == "quic.py" else "transport"
    if package == "experiments":
        return "executor" if module == "executor.py" else "harness"
    if package in _PACKAGE_LAYERS:
        return package
    return "other"


class _Attribution:
    """Maps profiled functions to layers (``None`` = charge the caller)."""

    def __init__(self) -> None:
        import repro

        self.repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        paths = sysconfig.get_paths()
        self.stdlib_dirs = tuple(
            os.path.abspath(paths[key]) + os.sep
            for key in ("stdlib", "platstdlib")
        )

    def own_layer(self, func: FuncKey) -> Optional[str]:
        filename, _, name = func
        if filename == "~":  # a C builtin
            return "numpy" if "numpy" in name else None
        if filename.startswith("<"):  # frozen importlib and friends
            return None
        path = os.path.abspath(filename)
        if path.startswith(self.repro_dir + os.sep):
            rel = os.path.relpath(path, self.repro_dir)
            return _repro_layer(rel.split(os.sep))
        if any(
            f"{os.sep}{package}{os.sep}" in path
            for package in ("numpy", "scipy")
        ):
            return "numpy"
        if path.startswith(self.stdlib_dirs) and "site-packages" not in path:
            return None
        return "other"


def layer_seconds(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """Self seconds per layer of a pstats ``stats`` table.

    A function without a layer of its own (C builtin, standard library)
    inherits the layer mix of its callers, weighted by the cumulative
    time each caller edge carries; a function reached only through a
    call cycle, or with no recorded caller, counts as ``other``.
    """
    attribution = _Attribution()
    own = {func: attribution.own_layer(func) for func in stats}
    memo: Dict[FuncKey, Dict[str, float]] = {}

    def mix(func: FuncKey, active: set) -> Dict[str, float]:
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        active.add(func)
        weights: Dict[str, float] = {}
        for caller, edge in stats[func][4].items():
            if caller in active or caller not in stats:
                continue
            weight = edge[3] or edge[1]
            for layer, share in mix(caller, active).items():
                weights[layer] = weights.get(layer, 0.0) + weight * share
        active.discard(func)
        total = sum(weights.values())
        result = (
            {layer: weight / total for layer, weight in weights.items()}
            if total > 0 else {"other": 1.0}
        )
        memo[func] = result
        return result

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        seconds = dict.fromkeys(LAYERS, 0.0)
        for func, entry in stats.items():
            for layer, share in mix(func, set()).items():
                seconds[layer] += entry[2] * share
    finally:
        sys.setrecursionlimit(limit)
    return seconds


def _span(stats: Dict[FuncKey, tuple], function: Callable) -> Tuple[float, int]:
    """(cumulative seconds, calls) of one function in a profile."""
    entry = stats.get(code_key(function))
    return (entry[3], entry[1]) if entry else (0.0, 0)


# ---------------------------------------------------------------------------
# Worker-side profiling of campaign shards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfiledShardTask:
    """Runs a shard task under cProfile and dumps the stats to a file.

    Passed to ``run_campaign(shard_task=...)``: it returns exactly what
    the wrapped task returns, so the campaign digest is unchanged.  The
    dump's total time is the shard's profiled compute time.
    """

    task: Callable[[int], Dict[str, Any]]
    out_dir: str

    def __call__(self, shard: int) -> Dict[str, Any]:
        profile = cProfile.Profile()
        profile.enable()
        try:
            return self.task(shard)
        finally:
            profile.disable()
            profile.dump_stats(
                os.path.join(self.out_dir, f"shard-{shard}-{os.getpid()}.prof")
            )


# ---------------------------------------------------------------------------
# The traced re-run
# ---------------------------------------------------------------------------


@dataclass
class TracedRun:
    outputs: List[Any]
    metrics: Dict[str, float]


def traced_rerun(workload, count: int, untraced_wall: float) -> TracedRun:
    """Re-run requests ``0 .. count-1`` under the profiler.

    ``untraced_wall`` is the untraced run's wall time for the same
    requests; the ratio is ``trace_overhead``.
    """
    from repro import profiling

    profile = cProfile.Profile()
    hpack_before = profiling.hpack_cache_counters()
    outputs: List[Any] = []
    shard_dir = os.path.join(workload.work_dir, "shard-profiles")
    os.makedirs(shard_dir, exist_ok=True)
    checkpoint_bytes: List[int] = []
    with profiling.profiled() as profiler:
        start = time.perf_counter()
        for index in range(count):
            profile.enable()
            try:
                output = workload.request(index, profile_dir=shard_dir)
            except Exception as error:  # recorded; the digest check fails it
                print(
                    f"{workload.name}: traced request {index} failed: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                output = None
            finally:
                profile.disable()
            outputs.append(output)
            if workload.family == "campaign" and output is not None:
                checkpoint_bytes.append(workload.last_checkpoint_bytes())
        traced_wall = time.perf_counter() - start
    hpack_after = profiling.hpack_cache_counters()

    shard_files = sorted(
        glob.glob(os.path.join(shard_dir, "**", "*.prof"), recursive=True)
    )
    shard_seconds = [pstats.Stats(path).total_tt for path in shard_files]
    merged = pstats.Stats(profile)
    if shard_files:
        merged.add(*shard_files)
    stats = merged.stats

    units = sum(workload.units(index) for index in range(count))
    metrics = dict.fromkeys(metric_names(), 0.0)
    metrics["trace_overhead"] = traced_wall / untraced_wall
    seconds = layer_seconds(stats)
    total = sum(seconds.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = seconds[layer] / total
        metrics[f"layer.{layer}.self_ms_per_op"] = seconds[layer] * 1e3 / units

    if workload.family == "paper":
        _paper_metrics(metrics, stats, profiler.counters, units, untraced_wall,
                       hpack_before, hpack_after)
    elif workload.family == "campaign":
        _campaign_metrics(metrics, stats, workload, count, traced_wall,
                          shard_seconds, checkpoint_bytes)
    else:
        _infer_metrics(metrics, stats, units)
    return TracedRun(outputs=outputs, metrics=metrics)


def _paper_metrics(metrics, stats, counters, trials, untraced_wall,
                   hpack_before, hpack_after) -> None:
    from repro.experiments.harness import TrialResult, summarize_result
    from repro.netsim.topology import build_adversary_path
    from repro.simkernel.simulator import Simulator

    spans = {
        "build_path": build_adversary_path,
        "run_until": Simulator.run_until,
        "summarize": summarize_result,
        "analyze": TrialResult.analyze,
    }
    for name, function in spans.items():
        seconds, calls = _span(stats, function)
        metrics[f"span.{name}.ms_per_op"] = seconds * 1e3 / trials
        metrics[f"span.{name}.calls_per_op"] = calls / trials
    for metric, counter in _PAPER_COUNTERS:
        metrics[metric] = counters.get(counter, 0) / trials
    events = counters.get("sim.events", 0)
    packets = counters.get("net.packets", 0)
    if packets:
        metrics["ratio.retransmit_per_packet"] = (
            counters.get("tcp.retransmitted_segments", 0) / packets
        )
    if events:
        metrics["ratio.batched_events"] = (
            counters.get("sim.batched_events", 0) / events
        )
        metrics["derived.us_per_event"] = untraced_wall * 1e6 / events
    hits = (
        hpack_after["hpack.literal_length.hits"]
        - hpack_before["hpack.literal_length.hits"]
    )
    misses = (
        hpack_after["hpack.literal_length.misses"]
        - hpack_before["hpack.literal_length.misses"]
    )
    if hits + misses:
        metrics["ratio.hpack_literal_hit"] = hits / (hits + misses)


def _campaign_metrics(metrics, stats, workload, calls, traced_wall,
                      shard_seconds, checkpoint_bytes) -> None:
    from repro.campaign.columnar import merge_summaries
    from repro.experiments.executor import Checkpoint

    shards = calls * workload.shards_per_request
    flush_seconds, _ = _span(stats, Checkpoint.flush)
    merge_seconds, _ = _span(stats, merge_summaries)
    metrics["span.shard_task.ms_per_shard"] = (
        sum(shard_seconds) * 1e3 / len(shard_seconds) if shard_seconds else 0.0
    )
    metrics["span.checkpoint_flush.ms_per_shard"] = flush_seconds * 1e3 / shards
    metrics["span.merge.ms"] = merge_seconds * 1e3 / calls
    metrics["executor.overhead_ms_per_shard"] = (
        (workload.workers * traced_wall - sum(shard_seconds)) * 1e3 / shards
    )
    metrics["count.processes_spawned"] = len(shard_seconds) / calls
    if checkpoint_bytes:
        metrics["bytes.checkpoint_final"] = (
            sum(checkpoint_bytes) / len(checkpoint_bytes)
        )


def _infer_metrics(metrics, stats, sessions) -> None:
    from repro.infer import classifiers
    from repro.infer.dataset import evaluate_session, observe
    from repro.infer.features import extract_features_auto
    from repro.infer.summary import InferSummary

    spans = {
        "evaluate_session": evaluate_session,
        "observe": observe,
        "extract_features": extract_features_auto,
        "fold": InferSummary.fold,
    }
    for name in _CLASSIFIERS:
        model = type(classifiers.resolve_classifier(name))
        spans[f"fit.{name}"] = model.fit
        spans[f"predict.{name}"] = model.predict
    for name, function in spans.items():
        seconds, _ = _span(stats, function)
        metrics[f"span.{name}.ms_per_op"] = seconds * 1e3 / sessions
