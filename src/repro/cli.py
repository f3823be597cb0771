"""Command-line interface: ``python -m repro <experiment> [options]``.

Runs any of the paper's experiments and prints its table:

    python -m repro baseline --trials 30
    python -m repro table1 --trials 100
    python -m repro table2 --trials 50 --seed 11
    python -m repro fig1
    python -m repro fig5
    python -m repro fig6
    python -m repro delay
    python -m repro ablations          # all five E8 studies
    python -m repro attack --trial 3   # one annotated session
    python -m repro table1 --trials 100 --workers 8   # parallel trials
    python -m repro infer-study --trials 12           # E19 frontier
    python -m repro infer --sessions 500 --workers 8  # frontier at scale

Worker processes (``--workers`` / ``REPRO_WORKERS``) parallelize trial
execution; results are bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Depending on HTTP/2 for Privacy? Good Luck!' "
            "(DSN 2020) — run the paper's experiments."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "baseline", "table1", "table2", "fig1", "fig5", "fig6",
            "delay", "ablations", "attack", "trigger", "streaming",
            "partialmux", "generalization", "fingerprint", "scorecard",
            "transport-study", "profile", "robustness-study", "verify",
            "campaign", "chaos", "infer-study", "infer",
        ],
        help="which paper experiment to run (`verify` for the "
             "conformance & golden-master harness, `campaign` for the "
             "population-scale sharded campaign engine, `chaos` for the "
             "fault-injection recovery scenarios, `infer-study` for the "
             "E19 inference-vs-defenses frontier, `infer` for the same "
             "frontier at campaign scale)",
    )
    parser.add_argument(
        "--trials", type=int, default=25,
        help="page loads per configuration (paper: 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload master seed"
    )
    parser.add_argument(
        "--trial", type=int, default=None,
        help="volunteer index (attack experiment only)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "worker processes for trial execution (default: the "
            "REPRO_WORKERS environment variable, else 1 = serial); "
            "results are identical for any worker count"
        ),
    )
    parser.add_argument(
        "--backend", choices=["python", "fast"], default=None,
        help=(
            "execution backend (default: the REPRO_BACKEND environment "
            "variable, else python): `fast` vectorizes analytic campaign "
            "shards with numpy (infer is always vectorized); all outputs "
            "are bit-identical across backends"
        ),
    )
    parser.add_argument(
        "--transport", choices=["tcp", "quic"], default=None,
        help=(
            "transport layer under TLS/HTTP (default: the REPRO_TRANSPORT "
            "environment variable, else tcp): `tcp` is the paper's "
            "single-byte-stream transport whose head-of-line blocking the "
            "attack exploits; `quic` is a QUIC-like datagram transport "
            "with independent per-stream loss recovery"
        ),
    )
    robustness = parser.add_argument_group(
        "robustness-study options",
        "fault-intensity sweep with the fault-tolerant executor",
    )
    robustness.add_argument(
        "--quick", action="store_true",
        help="reduced run for CI: robustness-study sweeps 3 intensity "
             "levels with 3 trials each; verify runs the conformance "
             "vectors, a 3-experiment golden subset and one "
             "determinism-matrix cell",
    )
    robustness.add_argument(
        "--levels", type=str, default=None,
        help="comma-separated fault intensities in [0, 1] to sweep",
    )
    robustness.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help=(
            "JSON checkpoint file; completed trials stream into it and a "
            "re-run with the same file resumes instead of recomputing"
        ),
    )
    robustness.add_argument(
        "--json", type=str, default=None, metavar="PATH", dest="json_out",
        help="also write the study/campaign result as JSON to this path "
             "(robustness-study, campaign and infer)",
    )
    robustness.add_argument(
        "--trial-timeout", type=float, default=None,
        help="per-trial wall-clock budget in seconds (default 300)",
    )
    robustness.add_argument(
        "--trial-retries", type=int, default=None,
        help="same-seed retries per crashed/hung/failed trial (default 1)",
    )
    campaign = parser.add_argument_group(
        "campaign options",
        "population-scale sharded campaign engine (`repro campaign`)",
    )
    campaign.add_argument(
        "--sessions", type=int, default=None,
        help="total seeded sessions in the campaign "
             "(default 100000; infer: 2000)",
    )
    campaign.add_argument(
        "--shard-size", type=int, default=None,
        help="consecutive sessions per shard; peak memory scales with "
             "sessions/shard-size, not with sessions "
             "(default 2000; infer: 250)",
    )
    campaign.add_argument(
        "--mode", choices=["analytic", "full"], default=None,
        help="session engine: closed-form analytic evaluation (fast, "
             "the default) or the complete packet-level simulation",
    )
    campaign.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="stream completed shard summaries into a checkpoint here; "
             "re-running the same campaign (or infer run) resumes "
             "bit-identically",
    )
    campaign.add_argument(
        "--max-objects", type=int, default=None,
        help="upper bound of the zipf per-page object count "
             "(campaign default 96); for infer-study/infer: classes "
             "per page (defaults 8 / 6)",
    )
    campaign.add_argument(
        "--count-exponent", type=float, default=None,
        help="zipf exponent of the page object-count draw (default 0.9)",
    )
    campaign.add_argument(
        "--size-exponent", type=float, default=None,
        help="rank-size exponent of object sizes (default 1.1)",
    )
    campaign.add_argument(
        "--allow-partial", action="store_true",
        help="when shards exhaust their retries, return a partial result "
             "with explicit coverage accounting (exit code 3) instead of "
             "failing the run",
    )
    campaign.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole campaign; shards unfinished "
             "at expiry are skipped (resumable from the checkpoint later)",
    )
    campaign.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="hung-shard watchdog: kill and retry a supervised worker "
             "whose shard has been silent for this long",
    )
    campaign.add_argument(
        "--failure-manifest", type=str, default=None, metavar="PATH",
        help="write a machine-readable JSON failure manifest here on "
             "every supervised outcome (complete, partial or failed)",
    )
    infer = parser.add_argument_group(
        "infer options",
        "statistical size inference vs defenses "
        "(`repro infer-study` and `repro infer`)",
    )
    infer.add_argument(
        "--reps", type=int, default=None,
        help="attacker training fetches per object "
             "(default: 3 for infer-study, 2 for infer)",
    )
    infer.add_argument(
        "--defenses", type=str, default=None, metavar="NAMES",
        help="comma-separated defense-level names to sweep, ladder order "
             "(default: all registered levels)",
    )
    infer.add_argument(
        "--classifiers", type=str, default=None, metavar="NAMES",
        help="comma-separated classifier registry names to evaluate "
             "(default: all registered classifiers)",
    )
    chaos = parser.add_argument_group(
        "chaos options",
        "fault-injection recovery scenarios (`repro chaos`)",
    )
    chaos.add_argument(
        "--scenario", type=str, default=None, metavar="NAMES",
        help="comma-separated chaos scenario names to run (default: all; "
             "--quick runs the fast CI subset)",
    )
    verify = parser.add_argument_group(
        "verify options",
        "conformance vectors, golden masters and the determinism matrix",
    )
    verify.add_argument(
        "--update-golden", action="store_true",
        help="regenerate src/repro/conform/golden.json from the current "
             "tree instead of comparing against it",
    )
    verify.add_argument(
        "--only", type=str, default=None, metavar="NAMES",
        help="comma-separated golden experiment names to restrict the "
             "golden/matrix layers to",
    )
    verify.add_argument(
        "--fuzz-examples", type=int, default=200,
        help="deterministic round-trip fuzz examples per suite "
             "(default 200)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "collect per-subsystem counters and wall-clock timers while "
            "the experiment runs; the report goes to stderr, so stdout "
            "(the experiment table) stays byte-identical"
        ),
    )
    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject incoherent flag/experiment combinations (exit code 2).

    Scoped flags used to be silently ignored outside their experiment —
    a ``--trial 3`` typo on ``table1`` ran 25 ordinary trials without a
    word.  Now every scoped flag names the experiment it needs.
    """
    if args.trial is not None and args.experiment != "attack":
        parser.error(
            f"--trial only applies to the attack experiment "
            f"(got experiment {args.experiment!r})"
        )
    robustness_only = (
        ("--levels", args.levels is not None),
        ("--checkpoint", args.checkpoint is not None),
        ("--trial-timeout", args.trial_timeout is not None),
        ("--trial-retries", args.trial_retries is not None),
    )
    for flag, given in robustness_only:
        if given and args.experiment != "robustness-study":
            parser.error(
                f"{flag} only applies to the robustness-study experiment "
                f"(got experiment {args.experiment!r})"
            )
    if args.json_out is not None and args.experiment not in (
        "robustness-study", "campaign", "infer"
    ):
        parser.error(
            f"--json only applies to robustness-study, campaign and infer "
            f"(got experiment {args.experiment!r})"
        )
    sharded = (
        ("--sessions", args.sessions is not None),
        ("--shard-size", args.shard_size is not None),
        ("--checkpoint-dir", args.checkpoint_dir is not None),
    )
    for flag, given in sharded:
        if given and args.experiment not in ("campaign", "infer"):
            parser.error(
                f"{flag} only applies to campaign and infer "
                f"(got experiment {args.experiment!r})"
            )
    if args.max_objects is not None and args.experiment not in (
        "campaign", "infer", "infer-study"
    ):
        parser.error(
            f"--max-objects only applies to campaign, infer and "
            f"infer-study (got experiment {args.experiment!r})"
        )
    campaign_only = (
        ("--mode", args.mode is not None),
        ("--count-exponent", args.count_exponent is not None),
        ("--size-exponent", args.size_exponent is not None),
        ("--allow-partial", args.allow_partial),
        ("--deadline", args.deadline is not None),
        ("--heartbeat-timeout", args.heartbeat_timeout is not None),
        ("--failure-manifest", args.failure_manifest is not None),
    )
    for flag, given in campaign_only:
        if given and args.experiment != "campaign":
            parser.error(
                f"{flag} only applies to the campaign experiment "
                f"(got experiment {args.experiment!r})"
            )
    infer_only = (
        ("--reps", args.reps is not None),
        ("--defenses", args.defenses is not None),
        ("--classifiers", args.classifiers is not None),
    )
    for flag, given in infer_only:
        if given and args.experiment not in ("infer-study", "infer"):
            parser.error(
                f"{flag} only applies to infer-study and infer "
                f"(got experiment {args.experiment!r})"
            )
    if args.scenario is not None and args.experiment != "chaos":
        parser.error(
            f"--scenario only applies to chaos "
            f"(got experiment {args.experiment!r})"
        )
    if args.quick and args.experiment not in (
        "robustness-study", "verify", "chaos"
    ):
        parser.error(
            f"--quick only applies to robustness-study, verify and chaos "
            f"(got experiment {args.experiment!r})"
        )
    verify_only = (
        ("--update-golden", args.update_golden),
        ("--only", args.only is not None),
    )
    for flag, given in verify_only:
        if given and args.experiment != "verify":
            parser.error(
                f"{flag} only applies to verify "
                f"(got experiment {args.experiment!r})"
            )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)

    if args.backend is not None:
        # Export the choice so spawned campaign workers, experiment
        # subprocesses and env-resolving constructors all inherit it.
        from repro.fastpath import BACKEND_ENV

        os.environ[BACKEND_ENV] = args.backend

    if args.transport is not None:
        # Same export discipline as --backend: campaign workers and
        # experiment subprocesses resolve the transport from the env.
        from repro.transport import TRANSPORT_ENV

        os.environ[TRANSPORT_ENV] = args.transport

    if args.experiment == "verify":
        return _run_verify(args)
    if args.experiment == "chaos":
        return _run_chaos(args)

    from repro.experiments.executor import resolve_workers
    try:
        workers = resolve_workers(args.workers)
    except ValueError as error:
        parser.error(str(error))

    profiler = None
    if args.profile and args.experiment != "profile":
        from repro import profiling
        if workers > 1:
            print(
                "repro: note: --profile with --workers > 1 only observes "
                "the parent process; use the serial executor for full "
                "coverage",
                file=sys.stderr,
            )
        profiler = profiling.activate()
    try:
        return _run_experiment(args, parser, workers)
    finally:
        # Every exit path, early returns included, renders the report
        # and leaves no profiler active in the calling process.
        if profiler is not None:
            for name, amount in profiling.hpack_cache_counters().items():
                profiler.counters[name] = amount
            profiling.deactivate()
            print(profiler.render(), file=sys.stderr)


def _run_experiment(args, parser, workers) -> int:
    """Run one experiment command; returns the exit code."""
    if args.experiment == "baseline":
        from repro.experiments import baseline
        print(baseline.run(trials=args.trials, seed=args.seed,
                           workers=args.workers).render())
    elif args.experiment == "table1":
        from repro.experiments import table1
        print(table1.run(trials=args.trials, seed=args.seed,
                         workers=args.workers).render())
    elif args.experiment == "table2":
        from repro.experiments import table2
        print(table2.run(trials=args.trials, seed=args.seed,
                         workers=args.workers).render())
    elif args.experiment == "fig1":
        from repro.experiments import fig1
        print(fig1.run(seed=args.seed).render())
    elif args.experiment == "fig5":
        from repro.experiments import fig5
        print(fig5.run(trials=args.trials, seed=args.seed,
                       workers=args.workers).render())
    elif args.experiment == "fig6":
        from repro.experiments import fig6
        print(fig6.run(trials=args.trials, seed=args.seed,
                       workers=args.workers).render())
    elif args.experiment == "delay":
        from repro.experiments import delay_ablation
        print(delay_ablation.run(trials=args.trials, seed=args.seed,
                                 workers=args.workers).render())
    elif args.experiment == "ablations":
        from repro.experiments import ablations
        small = max(4, args.trials // 3)
        studies = [
            ablations.run_quirk,
            ablations.run_actuator,
            ablations.run_scheduler,
            ablations.run_defense,
            ablations.run_h1_baseline,
            ablations.run_push_defense,
            ablations.run_success_accounting,
            ablations.run_tcp_variants,
        ]
        for index, study in enumerate(studies):
            if index:
                print()
            print(study(trials=small, seed=args.seed,
                        workers=args.workers).render())
    elif args.experiment == "trigger":
        from repro.experiments import trigger_study
        print(trigger_study.run(
            trials=args.trials, training_trials=max(8, args.trials),
            seed=args.seed, workers=args.workers,
        ).render())
    elif args.experiment == "streaming":
        from repro.experiments import streaming_study
        print(streaming_study.run(
            trials=max(3, args.trials // 3), seed=args.seed,
            workers=args.workers,
        ).render())
    elif args.experiment == "partialmux":
        from repro.experiments import partial_mux
        print(partial_mux.run(trials=args.trials, seed=args.seed,
                              workers=args.workers).render())
    elif args.experiment == "generalization":
        from repro.experiments import generalization
        print(generalization.run(
            trials=max(3, args.trials // 4), seed=args.seed,
            workers=args.workers,
        ).render())
    elif args.experiment == "fingerprint":
        from repro.experiments import fingerprint_study
        print(fingerprint_study.run(seed=args.seed,
                                    workers=args.workers).render())
    elif args.experiment == "scorecard":
        from repro.experiments import scorecard
        card = scorecard.run(trials=args.trials, seed=args.seed,
                             workers=args.workers)
        print(card.render())
        return 0 if card.all_shapes_hold else 1
    elif args.experiment == "transport-study":
        from repro.experiments import transport_study
        print(transport_study.run(
            trials=max(2, args.trials // 8), seed=args.seed,
            workers=args.workers,
        ).render())
    elif args.experiment == "infer-study":
        from repro.experiments import infer_study
        try:
            design = _infer_design(args)
        except ValueError as error:
            parser.error(str(error))
        print(infer_study.run(
            trials=args.trials, workers=args.workers, design=design,
        ).render())
    elif args.experiment == "infer":
        return _run_campaign(args, _infer_config)
    elif args.experiment == "robustness-study":
        return _run_robustness_study(args, workers)
    elif args.experiment == "campaign":
        return _run_campaign(args, _campaign_config)
    elif args.experiment == "profile":
        from repro.experiments.hotpath import profile_reference
        _, report = profile_reference(seed=args.seed)
        print(report)
    elif args.experiment == "attack":
        _run_attack(args.trial if args.trial is not None else 0, args.seed)
    return 0


def _run_verify(args) -> int:
    """``repro verify``: conformance + golden masters + determinism."""
    from repro.conform import run_verify

    only = None
    if args.only:
        only = [name for name in args.only.split(",") if name]
    try:
        report = run_verify(
            quick=args.quick,
            only=only,
            update_golden=args.update_golden,
            fuzz_examples=args.fuzz_examples,
        )
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return report.exit_code


def _run_robustness_study(args, workers) -> int:
    """The fault-intensity sweep (see repro.experiments.robustness_study)."""
    import json as json_module

    from repro.experiments import robustness_study
    from repro.experiments.executor import FaultTolerance

    if args.levels:
        try:
            intensities = tuple(
                float(level) for level in args.levels.split(",") if level
            )
        except ValueError:
            print(f"repro: bad --levels value {args.levels!r}",
                  file=sys.stderr)
            return 2
    elif args.quick:
        intensities = robustness_study.QUICK_INTENSITIES
    else:
        intensities = robustness_study.INTENSITIES
    trials = min(args.trials, 3) if args.quick else args.trials
    fault_tolerance = FaultTolerance(
        timeout=args.trial_timeout if args.trial_timeout is not None else 300.0,
        retries=args.trial_retries if args.trial_retries is not None else 1,
        checkpoint_path=args.checkpoint,
    )
    result = robustness_study.run(
        trials=trials,
        seed=args.seed,
        intensities=intensities,
        workers=workers,
        fault_tolerance=fault_tolerance,
    )
    print(result.render())
    if not result.monotone_story:
        print("repro: warning: sweep is not monotone (success rose with "
              "fault intensity)", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_json(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
    return 0


def _campaign_config(args):
    """``repro campaign``'s config from CLI flags (may raise ValueError)."""
    import dataclasses

    from repro.campaign import AnalyticModel, CampaignConfig
    from repro.transport import resolve_transport
    from repro.web.workload import PopulationConfig

    population_overrides = {}
    if args.max_objects is not None:
        population_overrides["max_objects"] = args.max_objects
    if args.count_exponent is not None:
        population_overrides["count_exponent"] = args.count_exponent
    if args.size_exponent is not None:
        population_overrides["size_exponent"] = args.size_exponent
    population = dataclasses.replace(
        PopulationConfig(), **population_overrides
    )
    return CampaignConfig(
        sessions=args.sessions if args.sessions is not None else 100_000,
        shard_size=args.shard_size if args.shard_size is not None else 2_000,
        seed=args.seed,
        mode=args.mode or "analytic",
        population=population,
        model=AnalyticModel(),
        transport=resolve_transport(args.transport),
    )


def _infer_config(args):
    """``repro infer``'s config from CLI flags (may raise ValueError)."""
    from repro.infer.campaign import InferCampaignConfig

    return InferCampaignConfig(
        sessions=args.sessions if args.sessions is not None else 2_000,
        shard_size=args.shard_size if args.shard_size is not None else 250,
        seed=args.seed,
        **_infer_overrides(args),
    )


def _run_campaign(args, build_config) -> int:
    """``repro campaign`` and ``repro infer``: one sharded run.

    ``build_config`` turns the flags into the command's config.  Stdout
    (the report) and ``--json`` output are deterministic — seeded
    sessions, integer folds, canonical merge order — so they diff clean
    across worker counts and kill/resume.  Wall-clock throughput, resume
    history and peak memory go to stderr only.

    Exit codes: 0 full coverage, 1 failed (per-shard error table on
    stderr), 2 bad arguments, 3 partial coverage (``--allow-partial``).
    """
    import json as json_module
    import time

    from repro import profiling
    from repro.campaign import CampaignError, render_shard_errors, run_campaign

    try:
        config = build_config(args)
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        result = run_campaign(
            config,
            workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            backend=args.backend,
            allow_partial=args.allow_partial,
            deadline=args.deadline,
            heartbeat_timeout=args.heartbeat_timeout,
            failure_manifest=args.failure_manifest,
        )
    except CampaignError as error:
        print(render_shard_errors(config, error.errors), file=sys.stderr)
        print(f"repro: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(result.render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_module.dump(result.to_json(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
    sessions = result.sessions_covered
    rate = sessions / elapsed if elapsed > 0 else 0.0
    print(
        f"repro {args.experiment}: {sessions} sessions in "
        f"{elapsed:.1f}s ({rate:,.0f}/s), {result.shards} shards, "
        f"{result.backend} backend, {result.workers} worker(s), "
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


def _infer_overrides(args) -> dict:
    """Shared --reps/--defenses/--classifiers/--max-objects parsing."""
    overrides = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.max_objects is not None:
        overrides["max_objects"] = args.max_objects
    if args.defenses:
        overrides["levels"] = tuple(
            name for name in args.defenses.split(",") if name
        )
    if args.classifiers:
        overrides["classifiers"] = tuple(
            name for name in args.classifiers.split(",") if name
        )
    return overrides


def _infer_design(args):
    """Build the E19 study design from CLI flags (may raise ValueError)."""
    from repro.infer.dataset import StudyDesign

    return StudyDesign(seed=args.seed, **_infer_overrides(args))


def _run_chaos(args) -> int:
    """``repro chaos``: run the fault-injection recovery scenarios."""
    from repro.chaos import SCENARIOS, render_results, run_scenarios

    names = None
    if args.scenario:
        names = [name for name in args.scenario.split(",") if name]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(
                f"repro: unknown chaos scenario(s) {unknown}; "
                f"available: {', '.join(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
    results = run_scenarios(names=names, quick=args.quick,
                            backend=args.backend)
    print(render_results(results))
    return 0 if all(result.passed for result in results) else 1


def _run_attack(trial: int, seed: int) -> None:
    """One annotated attacked session (the quickstart, inline)."""
    from repro import AdversaryConfig, TrialConfig, VolunteerWorkload, run_trial
    from repro.web.isidewith import HTML_OBJECT_ID

    workload = VolunteerWorkload(seed=seed)
    outcome = run_trial(trial, workload, TrialConfig(adversary=AdversaryConfig()))
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


if __name__ == "__main__":
    sys.exit(main())
