"""Hot-path profiling: per-subsystem counters and wall-clock timers.

The experiment harness replays hundreds of thousands of segment
deliveries per trial; this module makes that cost *observable* without
perturbing it.  Profiling is collection-only: it reads counters the
simulation already maintains (events executed, packets captured, frames
written, trace records appended) and wraps trial phases in wall-clock
timers.  It never touches the per-event path, so experiment output is
byte-identical with profiling on or off — a property the test suite
asserts.

Usage::

    from repro import profiling

    with profiling.profiled() as profiler:
        table1.run(trials=5)
    print(profiler.render())

or via the CLI: ``python -m repro table1 --profile`` (report on stderr,
stdout unchanged) and ``python -m repro profile`` (reference
single-trial slices, report on stdout).

When trials run in worker processes (``--workers N``), the harness-side
hooks run in the workers and their counters do not reach the parent;
profile with the default serial executor.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class Profiler:
    """Accumulates named counters, wall-clock timers and gauges.

    Counters are plain integers (``events``, ``packets`` …); timers are
    cumulative seconds per named section.  Both merge additively across
    trials, so one profiler can span a whole sweep.  Gauges are
    high-water marks (peak RSS, tracemalloc peak) merged by ``max``.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- accumulation --------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the named timer."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the named high-water gauge to at least ``value``."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named timer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's totals into this one."""
        for name, amount in other.counters.items():
            self.count(name, amount)
        for name, seconds in other.timers.items():
            self.add_time(name, seconds)
        for name, value in other.gauges.items():
            self.gauge_max(name, value)

    # -- reporting -----------------------------------------------------

    def rates(self) -> Dict[str, float]:
        """Derived throughput figures (per second of simulate time)."""
        simulate = self.timers.get("trial.simulate", 0.0)
        if simulate <= 0:
            return {}
        return {
            f"{name}_per_sec": self.counters[name] / simulate
            for name in ("sim.events", "net.packets", "h2.frames_sent")
            if name in self.counters
        }

    def render(self) -> str:
        """Human-readable report."""
        lines = ["hot-path profile", "================"]
        if self.timers:
            lines.append("wall clock:")
            for name, seconds in sorted(self.timers.items()):
                lines.append(f"  {name:<28} {seconds * 1000.0:10.1f} ms")
        if self.counters:
            lines.append("counters:")
            for name, amount in sorted(self.counters.items()):
                lines.append(f"  {name:<28} {amount:>10}")
        if self.gauges:
            lines.append("gauges:")
            for name, value in sorted(self.gauges.items()):
                lines.append(f"  {name:<28} {value:>10.0f}")
        rates = self.rates()
        if rates:
            lines.append("throughput:")
            for name, value in sorted(rates.items()):
                lines.append(f"  {name:<28} {value:>10.0f}")
        if len(lines) == 2:
            lines.append("(empty — no profiled sections ran)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Profiler(counters={len(self.counters)}, "
            f"timers={len(self.timers)})"
        )


#: The process-wide active profiler, or None when profiling is off.
#: Hot-path hooks are a single ``is None`` check when inactive.
_active: Optional[Profiler] = None


def activate(profiler: Optional[Profiler] = None) -> Profiler:
    """Install (and return) the process-wide profiler."""
    global _active
    _active = profiler if profiler is not None else Profiler()
    return _active


def deactivate() -> Optional[Profiler]:
    """Remove and return the active profiler (None when none was set)."""
    global _active
    profiler, _active = _active, None
    return profiler


def active() -> Optional[Profiler]:
    """The currently installed profiler, or None."""
    return _active


@contextmanager
def profiled(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Activate a profiler for a ``with`` block and restore the
    previous one afterwards."""
    global _active
    previous = _active
    current = profiler if profiler is not None else Profiler()
    _active = current
    try:
        yield current
    finally:
        _active = previous


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kibibytes.

    A high-water mark maintained by the kernel (``ru_maxrss``), so
    reading it costs one syscall and never perturbs the hot path.

    Returns 0 on platforms without :mod:`resource` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    scale = 1024 if sys.platform == "darwin" else 1  # macOS reports bytes
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // scale)


@contextmanager
def traced_memory() -> Iterator[Dict[str, float]]:
    """Trace Python-heap allocations for a ``with`` block.

    Yields a dict that, after the block exits, holds
    ``tracemalloc_peak_kb`` — the peak traced allocation in KiB.
    Tracing slows allocation noticeably, so callers keep it out of
    wall-clock-timed sections.  Nests safely: if
    tracemalloc is already running, the outer trace is left running.
    """
    gauges: Dict[str, float] = {}
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        yield gauges
    finally:
        _, peak = tracemalloc.get_traced_memory()
        if not already_tracing:
            tracemalloc.stop()
        gauges["tracemalloc_peak_kb"] = round(peak / 1024.0, 1)
        profiler = active()
        if profiler is not None:
            profiler.gauge_max("mem.tracemalloc_peak_kb", peak / 1024.0)


def hpack_cache_counters() -> Dict[str, int]:
    """Hit/miss statistics of the memoized HPACK sizing functions.

    Only :func:`~repro.hpack.huffman.string_literal_length` carries a
    cache: its inner helper ``huffman_encoded_length`` is shielded by
    it (every repeated string short-circuits in the outer cache), so a
    cache there could never hit and was removed.
    """
    from repro.hpack.huffman import string_literal_length

    info = string_literal_length.cache_info()
    return {
        "hpack.literal_length.hits": info.hits,
        "hpack.literal_length.misses": info.misses,
    }
