"""Profiler unit tests and the profiling determinism contract.

Profiling is collection-only: it reads counters the simulation already
maintains and wraps trial phases in wall-clock timers, so experiment
output must be byte-identical with profiling on or off.  The regression
tests here render Table I and Fig. 6 mini-profiles both ways and
compare the tables byte for byte — at the library level and through
the CLI (where the profile report must land on stderr, never stdout).
"""

import pytest

from repro import profiling
from repro.cli import main
from repro.experiments import fig6, table1
from repro.experiments.hotpath import (
    KINDS,
    profile_reference,
    reference_config,
    run_reference_trial,
)


# -- Profiler mechanics -------------------------------------------------


def test_counters_and_timers_accumulate():
    profiler = profiling.Profiler()
    profiler.count("sim.events")
    profiler.count("sim.events", 4)
    profiler.add_time("trial.simulate", 0.25)
    profiler.add_time("trial.simulate", 0.75)
    assert profiler.counters["sim.events"] == 5
    assert profiler.timers["trial.simulate"] == pytest.approx(1.0)


def test_timer_context_manager_times_block():
    profiler = profiling.Profiler()
    with profiler.timer("phase"):
        pass
    assert profiler.timers["phase"] >= 0.0
    with pytest.raises(RuntimeError):
        with profiler.timer("phase"):
            raise RuntimeError("boom")
    assert profiler.timers["phase"] >= 0.0  # recorded despite the raise


def test_merge_is_additive():
    first = profiling.Profiler()
    first.count("trials", 2)
    first.add_time("trial.simulate", 1.0)
    second = profiling.Profiler()
    second.count("trials", 3)
    second.count("net.packets", 10)
    second.add_time("trial.simulate", 0.5)
    first.merge(second)
    assert first.counters == {"trials": 5, "net.packets": 10}
    assert first.timers["trial.simulate"] == pytest.approx(1.5)


def test_gauges_keep_high_water_mark():
    profiler = profiling.Profiler()
    profiler.gauge_max("mem.peak_rss_kb", 100.0)
    profiler.gauge_max("mem.peak_rss_kb", 50.0)
    assert profiler.gauges["mem.peak_rss_kb"] == 100.0
    other = profiling.Profiler()
    other.gauge_max("mem.peak_rss_kb", 250.0)
    profiler.merge(other)
    assert profiler.gauges["mem.peak_rss_kb"] == 250.0
    assert "gauges:" in profiler.render()


def test_peak_rss_is_positive_and_monotone():
    first = profiling.peak_rss_kb()
    assert first > 0
    ballast = bytearray(8 << 20)  # 8 MiB high-water bump
    second = profiling.peak_rss_kb()
    del ballast
    assert second >= first


def test_traced_memory_reports_python_heap_peak():
    with profiling.profiled() as profiler:
        with profiling.traced_memory() as traced:
            ballast = bytearray(4 << 20)
            del ballast
    assert traced["tracemalloc_peak_kb"] >= 4096
    assert profiler.gauges["mem.tracemalloc_peak_kb"] >= 4096


def test_traced_memory_nests_without_stopping_outer_trace():
    import tracemalloc

    with profiling.traced_memory() as outer:
        with profiling.traced_memory() as inner:
            ballast = bytearray(1 << 20)
            del ballast
        assert tracemalloc.is_tracing()  # inner exit must not stop it
    assert not tracemalloc.is_tracing()
    assert inner["tracemalloc_peak_kb"] >= 1024
    assert outer["tracemalloc_peak_kb"] >= 0


def test_rates_derive_from_simulate_time():
    profiler = profiling.Profiler()
    assert profiler.rates() == {}
    profiler.count("sim.events", 1000)
    profiler.add_time("trial.simulate", 2.0)
    assert profiler.rates() == {"sim.events_per_sec": pytest.approx(500.0)}


def test_render_mentions_sections():
    profiler = profiling.Profiler()
    empty = profiler.render()
    assert "no profiled sections" in empty
    profiler.count("sim.events", 7)
    profiler.add_time("trial.simulate", 0.5)
    report = profiler.render()
    assert "wall clock:" in report
    assert "counters:" in report
    assert "sim.events" in report


def test_profiled_restores_previous_profiler():
    assert profiling.active() is None
    outer = profiling.activate()
    try:
        with profiling.profiled() as inner:
            assert profiling.active() is inner
            assert inner is not outer
        assert profiling.active() is outer
    finally:
        profiling.deactivate()
    assert profiling.active() is None


def test_activate_deactivate():
    profiler = profiling.activate()
    assert profiling.active() is profiler
    assert profiling.deactivate() is profiler
    assert profiling.active() is None
    assert profiling.deactivate() is None


# -- Harness integration ------------------------------------------------


def test_harness_populates_profiler():
    with profiling.profiled() as profiler:
        run_reference_trial("table1")
    assert profiler.counters["trials"] == 1
    assert profiler.counters["sim.events"] > 0
    assert profiler.counters["net.packets"] > 0
    assert profiler.counters["trace.records"] > 0
    assert profiler.counters["h2.frames_sent"] > 0
    assert profiler.timers["trial.simulate"] > 0.0
    assert profiler.timers["trial.setup"] >= 0.0
    assert profiler.timers["trial.collect"] >= 0.0
    assert profiler.gauges["mem.peak_rss_kb"] > 0


def test_profile_reference_covers_both_slices():
    profiler, report = profile_reference()
    for kind in KINDS:
        assert f"slice.{kind}" in profiler.timers
    assert profiler.counters["trials"] == len(KINDS)
    assert "hpack.literal_length.misses" in profiler.counters
    assert report.startswith("hot-path profile")


def test_reference_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        reference_config("fig9")


# -- Determinism: profiling must not change experiment output -----------


def test_table1_output_identical_with_profiling():
    plain = table1.run(trials=2, seed=7, delays=(0.0, 0.050)).render()
    with profiling.profiled() as profiler:
        profiled = table1.run(trials=2, seed=7, delays=(0.0, 0.050)).render()
    assert profiled == plain
    assert profiler.counters["trials"] == 4  # the hooks did run


def test_fig6_output_identical_with_profiling():
    plain = fig6.run(trials=1, seed=7, drop_rates=(0.0, 0.8)).render()
    with profiling.profiled():
        profiled = fig6.run(trials=1, seed=7, drop_rates=(0.0, 0.8)).render()
    assert profiled == plain


def test_cli_profile_flag_keeps_stdout_identical(capsys):
    assert main(["table1", "--trials", "1"]) == 0
    plain = capsys.readouterr()
    assert main(["table1", "--trials", "1", "--profile"]) == 0
    profiled = capsys.readouterr()
    assert profiled.out == plain.out
    assert "hot-path profile" in profiled.err
    assert profiling.active() is None  # flag cleaned up after the run


def test_cli_profile_covers_full_mode_campaign(capsys):
    # Commands that return early (campaign, infer, robustness-study)
    # still render the report, and the full-mode session runs through
    # the harness, so its trial phases show.
    argv = ["campaign", "--mode", "full", "--sessions", "2",
            "--shard-size", "2", "--workers", "1"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--profile"]) == 0
    profiled = capsys.readouterr()
    assert profiled.out == plain.out
    assert "trial.simulate" in profiled.err
    assert profiling.active() is None


def test_cli_profile_subcommand(capsys):
    assert main(["profile"]) == 0
    captured = capsys.readouterr()
    assert "hot-path profile" in captured.out
    assert "slice.table1" in captured.out
    assert "slice.fig6" in captured.out
