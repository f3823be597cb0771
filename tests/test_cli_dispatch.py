"""CLI dispatch health: the per-command grammar and smoke runs.

Three layers:

* every flag outside its command's parser must be rejected up front
  with argparse's exit code 2 and a message naming the flag and the
  command — scoped flags used to be silently ignored elsewhere;
* every argv the repository itself runs (the golden masters, the
  determinism matrix, CI, the recovery test) must parse, and every
  ``--help`` must render;
* every command must dispatch, exit 0 and print something at the
  smallest profile (``--trials 1 --workers 1``; attack and profile
  take neither).  Heavy choices (multi-study sweeps, the verify
  harness) carry the ``slow`` marker and run in the nightly job.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.conform.golden import EXPERIMENTS
from tests.test_recovery_smoke import recovery_argvs

CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"

BAD_COMBOS = [
    (["table1", "--trial", "3"], "--trial"),
    (["baseline", "--quick"], "--quick"),
    (["table1", "--levels", "0.5"], "--levels"),
    (["fig1", "--checkpoint", "x.json"], "--checkpoint"),
    (["table2", "--json", "out.json"], "--json"),
    (["fig5", "--trial-timeout", "10"], "--trial-timeout"),
    (["fig6", "--trial-retries", "2"], "--trial-retries"),
    # The per-trial policy is fixed at 300 s and one retry.
    (["robustness-study", "--trial-timeout", "-5"], "--trial-timeout"),
    (["robustness-study", "--trial-retries", "-1"], "--trial-retries"),
    (["table1", "--update-golden"], "--update-golden"),
    (["delay", "--only", "fig1"], "--only"),
    (["verify", "--trial", "0"], "--trial"),
    (["table1", "--sessions", "100"], "--sessions"),
    (["fig1", "--shard-size", "50"], "--shard-size"),
    (["attack", "--mode", "analytic"], "--mode"),
    (["verify", "--checkpoint-dir", "ck"], "--checkpoint-dir"),
    (["table2", "--max-objects", "32"], "--max-objects"),
    (["baseline", "--count-exponent", "0.9"], "--count-exponent"),
    (["fig6", "--size-exponent", "1.1"], "--size-exponent"),
    (["campaign", "--trial", "0"], "--trial"),
    (["campaign", "--levels", "0.5"], "--levels"),
    (["table1", "--allow-partial"], "--allow-partial"),
    (["verify", "--deadline", "10"], "--deadline"),
    (["fig1", "--heartbeat-timeout", "5"], "--heartbeat-timeout"),
    (["baseline", "--failure-manifest", "m.json"], "--failure-manifest"),
    (["table1", "--scenario", "worker-kill"], "--scenario"),
    (["campaign", "--scenario", "worker-kill"], "--scenario"),
    (["table1", "--reps", "2"], "--reps"),
    (["campaign", "--defenses", "off,pad256"], "--defenses"),
    (["verify", "--classifiers", "exact"], "--classifiers"),
    (["infer-study", "--sessions", "5"], "--sessions"),
    (["infer-study", "--json", "out.json"], "--json"),
    (["baseline", "--fuzz-examples", "5"], "--fuzz-examples"),
    (["verify", "--profile"], "--profile"),
    (["verify", "--workers", "2"], "--workers"),
    (["chaos", "--seed", "3"], "--seed"),
    (["campaign", "--trials", "3"], "--trials"),
    (["infer", "--trials", "3"], "--trials"),
    # attack runs one trial in process; profile runs its fixed slices.
    (["attack", "--trials", "5"], "--trials"),
    (["attack", "--workers", "2"], "--workers"),
    (["profile", "--trials", "3"], "--trials"),
    (["profile", "--workers", "2"], "--workers"),
    (["profile", "--profile"], "--profile"),  # it always profiles
    (["campaign", "--sess", "10"], "--sess"),  # no abbreviations
]


@pytest.mark.parametrize(
    "argv, flag", BAD_COMBOS, ids=[" ".join(argv) for argv, _ in BAD_COMBOS]
)
def test_incoherent_flag_combo_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    # The command's own parser reports it, so the message names it.
    assert f"repro {argv[0]}: error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["table1", "--trials", "-2"],
    ["attack", "--trial", "-1"],
    ["verify", "--fuzz-examples", "-3", "--only", "fig1"],
    ["fig1", "--trials", "many"],
], ids=" ".join)
def test_bad_count_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert f"repro {argv[0]}: error: argument {argv[1]}" in captured.err
    assert captured.out == ""


def test_coherent_scoped_flags_pass_validation():
    parse = cli.parse_args  # must not raise / exit
    parse(
        ["robustness-study", "--quick", "--levels", "0.2,0.5",
         "--checkpoint", "ck.json", "--json", "out.json"]
    )
    parse(["attack", "--trial", "3"])
    parse(["verify", "--quick", "--only", "fig1", "--update-golden"])
    parse(
        ["campaign", "--sessions", "1000", "--shard-size", "100",
         "--mode", "analytic", "--checkpoint-dir", "ck",
         "--max-objects", "48", "--count-exponent", "0.8",
         "--size-exponent", "1.2", "--json", "out.json",
         "--allow-partial", "--deadline", "60",
         "--heartbeat-timeout", "30", "--failure-manifest", "m.json"]
    )
    parse(["chaos", "--quick", "--scenario", "deadline-expiry"])
    parse(
        ["infer-study", "--trials", "2", "--reps", "2",
         "--defenses", "off,pad256", "--classifiers", "exact,centroid",
         "--max-objects", "4"]
    )
    parse(
        ["infer", "--sessions", "10", "--shard-size", "5",
         "--checkpoint-dir", "ck", "--reps", "2", "--json", "out.json"]
    )


def _ci_argvs():
    """The argv of every ``python -m repro ...`` or ``repro ...`` line in
    CI (``repro --help`` is left to :func:`test_help_renders`)."""
    argvs = []
    for line in CI_WORKFLOW.read_text(encoding="utf-8").splitlines():
        match = (re.search(r"python -m repro (.*)", line)
                 or re.match(r"\s*repro (.*)", line))
        if match and match[1] != "--help":
            # Stop at the first shell redirection or pipe.
            argvs.append(shlex.split(re.split(r"\s(?:\d?>|\|)", match[1])[0]))
    return argvs


REPO_ARGVS = (
    list(EXPERIMENTS.values())
    + [argv + ["--workers", "4"] for argv in EXPERIMENTS.values()]
    + [EXPERIMENTS["robustness-study"] + ["--checkpoint", "ck.json"]]
    + _ci_argvs()
    + recovery_argvs()
)


@pytest.mark.parametrize("argv", REPO_ARGVS, ids=" ".join)
def test_every_argv_the_repo_runs_parses(argv):
    args = cli.parse_args(argv)
    assert args.command == argv[0]


def test_ci_argvs_were_found():
    commands = {argv[0] for argv in _ci_argvs()}
    assert {"fig1", "table1", "campaign", "verify", "chaos", "infer",
            "infer-study", "attack", "scorecard"} <= commands


COMMANDS = [
    "baseline", "table1", "table2", "fig1", "fig5", "fig6", "delay",
    "ablations", "attack", "trigger", "streaming", "partialmux",
    "generalization", "fingerprint", "scorecard", "transport-study",
    "profile", "robustness-study", "verify", "campaign", "chaos",
    "infer-study", "infer",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_takes_abbreviated_flags(capsys, command):
    # Every command takes --transport; none may read "--transp" as it.
    with pytest.raises(SystemExit) as excinfo:
        cli.parse_args([command, "--transp", "tcp"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --transp tcp" in capsys.readouterr().err


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_renders(capsys, command):
    # A stray "%" in a help string breaks only its command's --help.
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    if command is None:
        for name in COMMANDS:
            assert name in out
    else:
        assert f"usage: repro {command}" in out


def _smoke(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


FAST_EXPERIMENTS = [
    "baseline", "table1", "table2", "fig1", "fig5", "fig6",
    "delay", "trigger", "partialmux", "fingerprint", "attack", "profile",
    "transport-study", "infer-study",
]

SLOW_EXPERIMENTS = ["ablations", "streaming", "generalization"]


#: The fast experiments that take neither ``--trials`` nor ``--workers``.
SINGLE_RUN = ("attack", "profile")


@pytest.mark.parametrize("experiment", FAST_EXPERIMENTS)
def test_experiment_smoke(capsys, experiment):
    argv = [experiment]
    if experiment not in SINGLE_RUN:
        argv += ["--trials", "1", "--workers", "1"]
    code, out = _smoke(capsys, argv)
    assert code == 0
    assert out.strip()


@pytest.mark.slow
@pytest.mark.parametrize("experiment", SLOW_EXPERIMENTS)
def test_heavy_experiment_smoke(capsys, experiment):
    code, out = _smoke(capsys, [experiment, "--trials", "1",
                                "--workers", "1"])
    assert code == 0
    assert out.strip()


def test_transport_flag_exports_environment(capsys, monkeypatch):
    import os

    # setenv (not delenv) so teardown restores the pre-test state even
    # though cli.main writes the variable itself.
    monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
    code, out = _smoke(capsys, ["fig1", "--transport", "quic"])
    assert code == 0
    # The choice is exported so campaign workers and env-resolving
    # constructors inherit it.
    assert os.environ.get("REPRO_TRANSPORT") == "quic"


def test_scorecard_smoke(capsys):
    # Scorecard's exit code encodes the shape verdict, not dispatch
    # health — at --trials 1 the paper's shapes legitimately may not
    # hold, so only 0/1 (ran and rendered) count as a healthy dispatch.
    code, out = _smoke(capsys, ["scorecard", "--trials", "1",
                                "--workers", "1"])
    assert code in (0, 1)
    assert out.strip()


def test_infer_study_smoke(capsys):
    code, out = _smoke(capsys, ["infer-study", "--trials", "2",
                                "--workers", "1", "--reps", "2",
                                "--max-objects", "4"])
    assert code == 0
    assert "E19 / infer" in out
    assert "exact-match baseline" in out


def test_infer_study_without_trials_prints_the_empty_frontier(capsys):
    code, out = _smoke(capsys, ["infer-study", "--trials", "0"])
    assert code == 0
    assert "(0 sessions, 0 objects)" in out
    assert "exact-match baseline 0.0%" in out


def test_infer_campaign_smoke(capsys, tmp_path):
    json_path = tmp_path / "frontier.json"
    code = cli.main(["infer", "--sessions", "4", "--shard-size", "2",
                     "--workers", "1", "--reps", "2",
                     "--max-objects", "4", "--json", str(json_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "E19 / infer" in captured.out
    assert "shards=2" in captured.out
    assert "sessions in" in captured.err
    import json

    payload = json.loads(json_path.read_text())
    assert payload["sessions"] == 4
    assert payload["format"] == "repro.infer.frontier/v1"
    assert payload["summary_digest"]


def test_infer_unknown_defense_exits_2(capsys):
    code = cli.main(["infer", "--defenses", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nosuch" in captured.err


@pytest.mark.parametrize("argv", [
    ["infer", "--sessions", "4", "--shard-size", "2",
     "--defenses", "off,off", "--classifiers", "exact,exact"],
    ["infer", "--sessions", "4", "--shard-size", "2", "--defenses", ","],
    ["infer-study", "--trials", "2", "--defenses", "off,off"],
    ["infer-study", "--trials", "2", "--defenses", ","],
    ["infer-study", "--trials", "2", "--classifiers", "knn,knn"],
], ids=["infer-repeated", "infer-empty", "study-repeated-level",
        "study-empty", "study-repeated-classifier"])
def test_infer_repeated_or_empty_axes_exit_2(capsys, argv):
    # Rejected before any session runs: nothing reaches stdout.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "repro: " in captured.err
    assert captured.out == ""


def test_robustness_study_smoke(capsys):
    code, out = _smoke(capsys, ["robustness-study", "--quick",
                                "--trials", "1", "--workers", "1"])
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("flags", [
    ["--levels", "1.5"],
    ["--levels", "nan"],
    ["--levels", "0.2,-0.5"],
    ["--levels", "high"],
    ["--levels", ","],
], ids=" ".join)
def test_robustness_study_bad_values_exit_2_before_any_trial(capsys, flags):
    code = cli.main(["robustness-study", "--trials", "1", "--workers", "1"]
                    + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: ")
    assert captured.out == ""


def test_campaign_smoke(capsys, tmp_path):
    json_path = tmp_path / "campaign.json"
    code = cli.main(["campaign", "--sessions", "300", "--shard-size", "100",
                     "--workers", "1", "--json", str(json_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "campaign" in captured.out
    assert "sessions in" in captured.err
    assert "peak RSS" in captured.err
    import json

    payload = json.loads(json_path.read_text())
    assert payload["campaign"]["sessions"] == 300
    assert payload["summary"]["counts"]["sessions"] == 300


@pytest.mark.slow
def test_verify_smoke(capsys):
    code, out = _smoke(capsys, ["verify", "--only", "fig1",
                                "--fuzz-examples", "25"])
    assert code == 0
    assert "VERDICT: PASS" in out


def test_verify_unknown_only_exits_2(capsys):
    code = cli.main(["verify", "--only", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nosuch" in captured.err


def test_campaign_failed_shards_exit_1_with_error_table(capsys):
    # deadline 0 without --allow-partial: every shard is skipped, the
    # campaign cannot produce a trustworthy total, so it must fail with
    # the concise per-shard table on stderr (not a raw traceback).
    code = cli.main(["campaign", "--sessions", "400", "--shard-size", "100",
                     "--workers", "1", "--deadline", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Campaign shard failures" in captured.err
    assert "deadline" in captured.err
    assert "shard(s) failed after retries" in captured.err


def test_campaign_allow_partial_exits_3(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code = cli.main(["campaign", "--sessions", "400", "--shard-size", "100",
                     "--workers", "1", "--deadline", "0",
                     "--allow-partial", "--failure-manifest", str(manifest)])
    captured = capsys.readouterr()
    assert code == 3
    assert "coverage (PARTIAL)" in captured.out
    assert "PARTIAL coverage" in captured.err
    assert manifest.exists()
    import json

    from repro.campaign import validate_manifest

    payload = json.loads(manifest.read_text())
    validate_manifest(payload)
    assert payload["status"] == "partial"


@pytest.mark.parametrize("argv", [
    ["campaign", "--sessions", "100", "--shard-size", "50",
     "--count-exponent", "nan"],
    ["campaign", "--sessions", "100", "--shard-size", "50",
     "--size-exponent", "nan"],
    ["campaign", "--sessions", "100", "--shard-size", "50",
     "--count-exponent", "inf"],
    ["campaign", "--sessions", "100", "--shard-size", "50",
     "--size-exponent", "inf"],
    ["chaos", "--scenario", ","],
    ["verify", "--only", ","],
], ids=" ".join)
def test_bad_values_exit_2_before_any_work(capsys, argv):
    # Rejected with ``repro: …`` before a shard, trial, scenario or
    # check runs: nothing reaches stdout.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro: ")
    assert captured.out == ""


def test_chaos_unknown_scenario_exits_2(capsys):
    code = cli.main(["chaos", "--scenario", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nosuch" in captured.err


def test_chaos_single_scenario_smoke(capsys):
    code = cli.main(["chaos", "--scenario", "deadline-expiry"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Chaos harness" in captured.out
    assert "deadline-expiry" in captured.out
    assert "PASS" in captured.out
