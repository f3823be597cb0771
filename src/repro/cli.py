"""Command-line interface: ``python -m repro <command> [options]``.

One command per paper table, figure and extension study, plus the
sharded campaigns, the conformance harness and the chaos scenarios:

    python -m repro table1 --trials 100 --workers 8   # parallel trials
    python -m repro attack --trial 3                  # one annotated session
    python -m repro infer --sessions 500 --workers 8  # E19 at campaign scale
    python -m repro verify --quick

Every command has its own argparse parser and takes only the flags it
reads; ``repro <command> --help`` lists them.  Flags that several
commands share are declared once, as parent parsers:

* ``--transport``: every command (it exports ``REPRO_TRANSPORT``);
* ``--seed``: every command but verify and chaos;
* ``--profile``: those, but profile (which always profiles);
* ``--workers``: those, but attack (one trial);
* ``--trials``: those, but campaign and infer;
* ``--sessions --shard-size --checkpoint-dir --json``: campaign, infer;
* ``--reps --defenses --classifiers --max-objects``: infer-study, infer.

A flag outside its command, or an abbreviation of one, exits 2 with
``repro <command>: error: unrecognized arguments: ...``.  Each parser
binds its command's runner with ``set_defaults(run=...)``, and a flag's
default is stated once: in its declaration, or, for the campaign and
E19 knobs, in the config class the flag overrides.

Worker processes (``--workers`` / ``REPRO_WORKERS``) parallelize trial
execution; results are bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional, Tuple


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = parse_args(argv)
    if args.transport is not None:
        # Export the choice so spawned campaign workers, experiment
        # subprocesses and env-resolving constructors all inherit it.
        from repro.transport import TRANSPORT_ENV

        os.environ[TRANSPORT_ENV] = args.transport
    if not getattr(args, "profile", False):
        return args.run(args)

    from repro import profiling

    if getattr(args, "workers", 1) > 1:
        print("repro: note: --profile with --workers > 1 only observes the "
              "parent process; use the serial executor for full coverage",
              file=sys.stderr)
    profiler = profiling.activate()
    try:
        return args.run(args)
    finally:
        # Every exit path, early returns included, renders the report
        # and leaves no profiler active in the calling process.
        for name, amount in profiling.hpack_cache_counters().items():
            profiler.counters[name] = amount
        profiling.deactivate()
        print(profiler.render(), file=sys.stderr)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse a command line; exits 2 on anything its command does not take.

    The namespace's ``run(args)`` is the command's runner.  Where the
    command takes ``--workers``, ``workers`` is the resolved count.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Depending on HTTP/2 for Privacy? Good Luck!' "
            "(DSN 2020) — run the paper's experiments."
        ),
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True,
        title="commands (repro <command> --help lists its flags)",
    )
    _add_commands(commands)
    args, extras = parser.parse_known_args(argv)
    command = commands.choices[args.command]
    if extras:
        command.error(f"unrecognized arguments: {' '.join(extras)}")
    if "workers" in args:
        from repro.experiments.executor import resolve_workers

        try:
            args.workers = resolve_workers(args.workers)
        except ValueError as error:
            command.error(str(error))
    return args


def _count(text: str) -> int:
    """argparse type of the count flags: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a count >= 0: {text!r}")
    return value


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: flags that several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _add_commands(commands) -> None:
    """Declare every command: its parent flags, its own flags, its runner."""
    transport = _flags()
    transport.add_argument(
        "--transport", choices=["tcp", "quic"],
        help="transport under TLS/HTTP (default: REPRO_TRANSPORT, else "
             "tcp): the paper's byte stream, whose head-of-line blocking "
             "the attack exploits, or QUIC-like per-stream recovery",
    )
    seeded = _flags(transport)
    seeded.add_argument("--seed", type=int, default=7,
                        help="workload master seed (default %(default)s)")
    profiled = _flags(seeded)
    profiled.add_argument(
        "--profile", action="store_true",
        help="per-subsystem counters and timers, reported on stderr "
             "(stdout stays byte-identical)",
    )
    runs = _flags(profiled)
    runs.add_argument(
        "--workers", type=int,
        help="worker processes (default: REPRO_WORKERS, else 1 = serial); "
             "results are identical for any worker count",
    )
    paper = _flags(runs)
    paper.add_argument(
        "--trials", type=_count, default=25,
        help="page loads per configuration (default %(default)s; paper: 100)",
    )
    json_out = _flags()
    json_out.add_argument("--json", metavar="PATH", dest="json_out",
                          help="also write the result as JSON to this path")
    sharded = _flags(json_out)
    sharded.add_argument(
        "--sessions", type=int,
        help="seeded sessions in total (default: campaign 100000, infer 2000)",
    )
    sharded.add_argument(
        "--shard-size", type=int,
        help="sessions per shard; peak memory scales with sessions / "
             "shard size, not with sessions (default: campaign 2000, "
             "infer 250)",
    )
    sharded.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint completed shards here; a re-run resumes "
             "bit-identically",
    )
    design = _flags()
    design.add_argument(
        "--reps", type=int,
        help="attacker training fetches per object "
             "(default: infer-study 3, infer 2)",
    )
    design.add_argument(
        "--defenses", metavar="NAMES",
        help="comma-separated defense levels, ladder order (default: all)",
    )
    design.add_argument(
        "--classifiers", metavar="NAMES",
        help="comma-separated classifier names (default: all)",
    )
    design.add_argument(
        "--max-objects", type=int,
        help="classes per page (default: infer-study 8, infer 6)",
    )

    def add(name, run, help_text, *parents):
        parser = commands.add_parser(
            name, parents=list(parents), help=help_text,
            description=help_text, allow_abbrev=False,
        )
        parser.set_defaults(run=run)
        return parser

    for name, run, help_text in (
        ("baseline", _table("baseline"), "E2: baseline multiplexing"),
        ("table1", _table("table1"), "E3 / Table I: effect of jitter"),
        ("table2", _table("table2"), "E6 / Table II: end-to-end accuracy"),
        ("fig1", _run_fig1, "E1 / Figure 1: size estimation vs multiplexing"),
        ("fig5", _table("fig5"), "E4 / Figure 5: effect of bandwidth"),
        ("fig6", _table("fig6"), "E5 / Figure 6: targeted drops"),
        ("delay", _table("delay_ablation"), "E7: uniform delay (negative)"),
        ("ablations", _run_ablations, "E8: the ablation studies"),
        ("trigger", _run_trigger, "E9: learned attack triggering"),
        ("streaming", _table("streaming_study", floor=3, divisor=3),
         "E10: the attack on streaming video"),
        ("partialmux", _table("partial_mux"),
         "E11: partial-multiplexing inference"),
        ("generalization", _table("generalization", floor=3, divisor=4),
         "E12: generalization to generated websites"),
        ("fingerprint", _run_fingerprint, "E13: page fingerprinting"),
        ("scorecard", _run_scorecard,
         "headline numbers, paper vs measured (exit 1 if a shape fails)"),
        ("transport-study", _table("transport_study", floor=2, divisor=8),
         "E18: the attack over each transport"),
    ):
        add(name, run, help_text, paper)
    add("profile", _run_profile, "hot-path profile of reference slices",
        seeded)
    attack = add("attack", _run_attack, "one annotated attacked session",
                 profiled)
    attack.add_argument("--trial", type=_count, default=0,
                        help="volunteer index (default %(default)s)")
    robustness = add("robustness-study", _run_robustness_study,
                     "E15: attack success vs fault intensity", paper,
                     json_out)
    robustness.add_argument(
        "--quick", action="store_true",
        help="CI profile: 3 intensity levels, at most 3 trials each",
    )
    robustness.add_argument(
        "--levels", help="comma-separated fault intensities in [0, 1]",
    )
    robustness.add_argument(
        "--checkpoint", metavar="PATH",
        help="JSON file completed trials stream into; a re-run with it "
             "resumes instead of recomputing",
    )
    verify = add("verify", _run_verify, "conformance vectors, golden "
                 "masters and the determinism matrix", transport)
    verify.add_argument(
        "--quick", action="store_true",
        help="CI profile: the vectors, a 3-experiment golden subset and "
             "one determinism-matrix cell",
    )
    verify.add_argument(
        "--update-golden", action="store_true",
        help="re-record the golden masters instead of comparing to them",
    )
    verify.add_argument(
        "--only", metavar="NAMES",
        help="comma-separated golden experiments to check (default: all)",
    )
    verify.add_argument(
        "--fuzz-examples", type=_count, default=200,
        help="round-trip fuzz examples per suite (default %(default)s)",
    )
    campaign = add("campaign", _run_campaign,
                   "E16: population-scale sharded campaign", runs, sharded)
    campaign.add_argument(
        "--mode", choices=["analytic", "full"],
        help="session engine: closed-form analytic (default) or the "
             "packet-level simulation",
    )
    campaign.add_argument(
        "--max-objects", type=int,
        help="upper bound of the zipf per-page object count (default 96)",
    )
    campaign.add_argument(
        "--count-exponent", type=float,
        help="zipf exponent of the page object-count draw (default 0.9)",
    )
    campaign.add_argument(
        "--size-exponent", type=float,
        help="rank-size exponent of object sizes (default 1.1)",
    )
    campaign.add_argument(
        "--allow-partial", action="store_true",
        help="when shards exhaust their retries, exit 3 with a partial "
             "result and its coverage instead of failing",
    )
    campaign.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="wall-clock budget; shards unfinished at expiry are skipped",
    )
    campaign.add_argument(
        "--heartbeat-timeout", type=float, metavar="SECONDS",
        help="kill and retry a worker whose shard is silent this long",
    )
    campaign.add_argument(
        "--failure-manifest", metavar="PATH",
        help="write a JSON failure manifest here on every outcome",
    )
    chaos = add("chaos", _run_chaos, "fault-injection recovery scenarios",
                transport)
    chaos.add_argument("--quick", action="store_true",
                       help="run the fast CI subset")
    chaos.add_argument(
        "--scenario", metavar="NAMES",
        help="comma-separated scenario names to run (default: all)",
    )
    add("infer-study", _run_infer_study,
        "E19: statistical size inference vs padding defenses",
        paper, design)
    add("infer", _run_infer, "E19's frontier at campaign scale",
        runs, sharded, design)


def _fail(error) -> int:
    """Report a bad argument found after parsing; exit code 2."""
    print(f"repro: {error}", file=sys.stderr)
    return 2


def _given(**flags) -> dict:
    """The flags given on the command line; the config holds the rest."""
    return {name: value for name, value in flags.items() if value is not None}


def _names(flag: str, text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """A comma-separated name list, or None when the flag is unset.

    Raises:
        ValueError: when the list names nothing (``--flag ,``).
    """
    if not text:
        return None
    names = tuple(name for name in text.split(",") if name)
    if not names:
        raise ValueError(f"{flag} {text!r} names nothing")
    return names


def _write_json(path: str, payload) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _table(module: str, floor: int = 0, divisor: int = 1):
    """Runner printing ``repro.experiments.<module>.run(...)``'s table,
    run with ``max(floor, trials // divisor)`` trials."""

    def run(args) -> int:
        experiment = importlib.import_module(f"repro.experiments.{module}")
        print(experiment.run(
            trials=max(floor, args.trials // divisor), seed=args.seed,
            workers=args.workers,
        ).render())
        return 0

    return run


def _run_fig1(args) -> int:
    from repro.experiments import fig1
    print(fig1.run(seed=args.seed).render())
    return 0


def _run_ablations(args) -> int:
    from repro.experiments import ablations
    studies = [
        ablations.run_quirk, ablations.run_actuator, ablations.run_scheduler,
        ablations.run_defense, ablations.run_h1_baseline,
        ablations.run_push_defense, ablations.run_success_accounting,
        ablations.run_tcp_variants,
    ]
    for index, study in enumerate(studies):
        if index:
            print()
        print(study(trials=max(4, args.trials // 3), seed=args.seed,
                    workers=args.workers).render())
    return 0


def _run_trigger(args) -> int:
    from repro.experiments import trigger_study
    print(trigger_study.run(
        trials=args.trials, training_trials=max(8, args.trials),
        seed=args.seed, workers=args.workers,
    ).render())
    return 0


def _run_fingerprint(args) -> int:
    from repro.experiments import fingerprint_study
    print(fingerprint_study.run(seed=args.seed,
                                workers=args.workers).render())
    return 0


def _run_scorecard(args) -> int:
    from repro.experiments import scorecard
    card = scorecard.run(trials=args.trials, seed=args.seed,
                         workers=args.workers)
    print(card.render())
    return 0 if card.all_shapes_hold else 1


def _run_profile(args) -> int:
    from repro.experiments.hotpath import profile_reference
    print(profile_reference(seed=args.seed)[1])
    return 0


def _run_attack(args) -> int:
    """One annotated attacked session (the quickstart, inline)."""
    from repro import AdversaryConfig, TrialConfig, VolunteerWorkload, run_trial
    from repro.experiments.harness import collector_paused
    from repro.web.isidewith import HTML_OBJECT_ID

    trial = args.trial
    workload = VolunteerWorkload(seed=args.seed)
    config = TrialConfig(adversary=AdversaryConfig())
    with collector_paused(), run_trial(trial, workload, config) as outcome:
        analysis = outcome.analyze()
        print(f"session #{trial}: completed={outcome.completed} "
              f"duration={outcome.duration:.1f}s "
              f"resets={outcome.browser.resets_sent}")
    html = analysis.single_object[HTML_OBJECT_ID]
    print(f"HTML: identified={html.identified} degree0={html.degree_zero} "
          f"success={html.success}")
    predicted = [p.replace('emblem-', '') for p in analysis.sequence_prediction]
    truth = [p.replace('emblem-', '') for p in analysis.sequence_truth]
    print(f"predicted order: {predicted}")
    print(f"true order     : {truth}")
    correct = sum(1 for a, b in zip(predicted, truth) if a == b)
    print(f"{correct}/8 positions correct")
    return 0


def _run_robustness_study(args) -> int:
    """The fault-intensity sweep (see repro.experiments.robustness_study)."""
    from repro.experiments import robustness_study

    if args.levels:
        try:
            intensities = tuple(
                float(level) for level in args.levels.split(",") if level
            )
        except ValueError:
            return _fail(f"bad --levels value {args.levels!r}")
    elif args.quick:
        intensities = robustness_study.QUICK_INTENSITIES
    else:
        intensities = robustness_study.INTENSITIES
    try:
        result = robustness_study.run(
            trials=min(args.trials, 3) if args.quick else args.trials,
            seed=args.seed,
            intensities=intensities,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
        )
    except ValueError as error:
        return _fail(error)
    print(result.render())
    if not result.monotone_story:
        print("repro: warning: sweep is not monotone (success rose with "
              "fault intensity)", file=sys.stderr)
    if args.json_out:
        _write_json(args.json_out, result.to_json())
    return 0


def _infer_design(args) -> dict:
    """The E19 design flags given (the config class holds the rest)."""
    return _given(
        reps=args.reps,
        max_objects=args.max_objects,
        levels=_names("--defenses", args.defenses),
        classifiers=_names("--classifiers", args.classifiers),
    )


def _run_infer_study(args) -> int:
    from repro.experiments import infer_study
    from repro.infer.dataset import StudyDesign

    try:
        design = StudyDesign(seed=args.seed, **_infer_design(args))
    except ValueError as error:
        return _fail(error)
    print(infer_study.run(
        trials=args.trials, workers=args.workers, design=design,
    ).render())
    return 0


def _campaign_config(args):
    """``repro campaign``'s config from its flags (may raise ValueError)."""
    from repro.campaign import CampaignConfig
    from repro.transport import resolve_transport
    from repro.web.workload import PopulationConfig

    population = PopulationConfig(**_given(
        max_objects=args.max_objects,
        count_exponent=args.count_exponent,
        size_exponent=args.size_exponent,
    ))
    return CampaignConfig(
        seed=args.seed,
        population=population,
        transport=resolve_transport(args.transport),
        **_given(sessions=args.sessions, shard_size=args.shard_size,
                 mode=args.mode),
    )


def _infer_config(args):
    """``repro infer``'s config from its flags (may raise ValueError)."""
    from repro.infer.campaign import InferCampaignConfig

    return InferCampaignConfig(
        seed=args.seed,
        **_given(sessions=args.sessions, shard_size=args.shard_size),
        **_infer_design(args),
    )


def _run_campaign(args) -> int:
    return _run_sharded(
        args, _campaign_config,
        allow_partial=args.allow_partial,
        deadline=args.deadline,
        heartbeat_timeout=args.heartbeat_timeout,
        failure_manifest=args.failure_manifest,
    )


def _run_infer(args) -> int:
    return _run_sharded(args, _infer_config)


def _run_sharded(args, build_config, **supervision) -> int:
    """``repro campaign`` and ``repro infer``: one sharded run.

    ``build_config`` turns the flags into the command's config, and
    ``supervision`` holds campaign's supervisor flags.  Stdout (the
    report) and ``--json`` output are deterministic — seeded sessions,
    integer folds, canonical merge order — so they diff clean across
    worker counts and kill/resume.  Wall-clock throughput, resume
    history and peak memory go to stderr only.

    Exit codes: 0 full coverage, 1 failed (per-shard error table on
    stderr), 2 bad arguments, 3 partial coverage (``--allow-partial``).
    """
    import time

    from repro import profiling
    from repro.campaign import CampaignError, render_shard_errors, run_campaign

    try:
        config = build_config(args)
    except ValueError as error:
        return _fail(error)
    start = time.perf_counter()
    try:
        result = run_campaign(
            config,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            **supervision,
        )
    except CampaignError as error:
        print(render_shard_errors(config, error.errors), file=sys.stderr)
        print(f"repro: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        return _fail(error)
    elapsed = time.perf_counter() - start
    print(result.render())
    if args.json_out:
        _write_json(args.json_out, result.to_json())
    sessions = result.sessions_covered
    rate = sessions / elapsed if elapsed > 0 else 0.0
    print(
        f"repro {args.command}: {sessions} sessions in "
        f"{elapsed:.1f}s ({rate:,.0f}/s), {result.shards} shards, "
        f"{result.workers} worker(s), "
        f"{result.resumed_shards} shard(s) resumed, peak RSS "
        f"{profiling.peak_rss_kb():,} KB",
        file=sys.stderr,
    )
    if result.partial:
        note = (
            f"repro: warning: PARTIAL coverage — {sessions}/"
            f"{config.sessions} sessions, "
            f"{len(result.failed_shards)} failed and "
            f"{len(result.skipped_shards)} deadline-skipped shard(s)"
        )
        if result.manifest_path:
            note += f"; failure manifest: {result.manifest_path}"
        print(note, file=sys.stderr)
        print(render_shard_errors(config, result.errors), file=sys.stderr)
        return 3
    return 0


def _run_verify(args) -> int:
    """``repro verify``: conformance + golden masters + determinism."""
    from repro.conform import run_verify

    try:
        report = run_verify(
            quick=args.quick,
            only=_names("--only", args.only),
            update_golden=args.update_golden,
            fuzz_examples=args.fuzz_examples,
        )
    except ValueError as error:
        return _fail(error)
    print(report.render())
    return report.exit_code


def _run_chaos(args) -> int:
    """``repro chaos``: run the fault-injection recovery scenarios."""
    from repro.chaos import SCENARIOS, render_results, run_scenarios

    try:
        names = _names("--scenario", args.scenario)
    except ValueError as error:
        return _fail(error)
    unknown = [name for name in names or () if name not in SCENARIOS]
    if unknown:
        return _fail(
            f"unknown chaos scenario(s) {unknown}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    results = run_scenarios(names=names, quick=args.quick)
    print(render_results(results))
    return 0 if all(result.passed for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
