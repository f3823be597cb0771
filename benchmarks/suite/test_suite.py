"""Tests of the benchmark itself (``pytest benchmarks/suite -q``, < 60 s).

Every workload runs once timed and once traced in quick mode (one
second of closed loop, one set-up launch); the campaign workload still
spawns its two supervised workers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

import ledger  # noqa: E402
import run as suite  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    """trace flag -> (final stdout line, --json payload) over all workloads."""
    tmp = tmp_path_factory.mktemp("sets")
    sets = {}
    for trace in (0, 1):
        path = tmp / f"trace{trace}.json"
        proc = invoke("--seconds", "1", "--quick", "--trace", str(trace),
                      "--json", str(path))
        assert proc.returncode == 0, proc.stderr
        sets[trace] = (last_json(proc), json.loads(path.read_text()))
    return sets


def test_every_workload_runs_correctly(quick_sets):
    for trace in (0, 1):
        line, payload = quick_sets[trace]
        runs = payload["runs"]
        assert [run["workload"] for run in runs] == list(workloads.WORKLOADS)
        assert line["correct"] is True
        assert line["failed"] == 0
        for run in runs:
            assert run["correct"] and run["failed"] == 0
            assert run["attempted"] >= 1
            assert run["fail_rate"] == 0
    host = quick_sets[0][1]["host"]
    assert host["nproc"] >= 1 and len(host["loadavg_before"]) == 3


def test_metric_names_match_benchmark_json(quick_sets):
    declared = {
        0: [metric["name"] for metric in BENCHMARK["end_to_end"]],
        1: [metric["name"] for metric in BENCHMARK["per_layer"]],
    }
    assert list(ledger.metric_names()) == declared[1]
    for trace, names in declared.items():
        line, payload = quick_sets[trace]
        for run in payload["runs"]:
            assert list(run["metrics"]) == names
            for name in names:
                metric = line["metrics"][f"{run['workload']}.{name}"]
                assert isinstance(metric["value"], (int, float))
    for run in quick_sets[0][1]["runs"]:
        assert all(value > 0 for value in run["metrics"].values())


def test_layer_shares_sum_to_one(quick_sets):
    for run in quick_sets[1][1]["runs"]:
        shares = [
            run["metrics"][f"layer.{layer}.share"] for layer in ledger.LAYERS
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert run["metrics"]["trace_overhead"] > 1.0


def test_campaign_trace_sees_the_workers(quick_sets):
    run = next(
        run for run in quick_sets[1][1]["runs"]
        if run["workload"] == "campaign-ckpt"
    )
    metrics = run["metrics"]
    # One spawned worker per shard.
    shards = workloads.CampaignWorkload.shards_per_request
    assert metrics["count.processes_spawned"] == shards
    assert metrics["span.shard_task.ms_per_shard"] > 0
    assert metrics["bytes.checkpoint_final"] > 0
    assert metrics["layer.campaign.share"] > 0


def test_digests_are_stable_across_runs(quick_sets):
    timed = {run["workload"]: run for run in quick_sets[0][1]["runs"]}
    for traced in quick_sets[1][1]["runs"]:
        first = timed[traced["workload"]]["request_digests"]
        second = traced["request_digests"]
        common = min(len(first), len(second))
        assert common >= 1
        assert first[:common] == second[:common]


def test_flipped_expected_digest_fails_the_run(tmp_path):
    expected = json.loads(suite.EXPECTED.read_text())
    digest = expected["digests"]["paper-tcp"][0]
    expected["digests"]["paper-tcp"][0] = (
        ("0" if digest[0] != "0" else "1") + digest[1:]
    )
    flipped = tmp_path / "expected.json"
    flipped.write_text(json.dumps(expected))
    proc = invoke("--workload", "paper-tcp", "--seconds", "0.2", "--quick",
                  "--expected", str(flipped))
    assert proc.returncode != 0
    assert "paper-tcp: request 0 digest" in proc.stderr
    line = last_json(proc)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "infer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/repro" in proc.stderr


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 99, 100, 100], [100, 102, 99, 101, 100], "higher", "unchanged"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", "better"),
        ([100, 101, 99, 100, 100], [125, 126, 124, 125, 125], "higher", "better"),
        ([100, 101, 99, 100, 100], [125, 126, 124, 125, 125], "lower", "worse"),
        ([100, 150, 60, 100, 130], [100, 101, 99, 100, 100], "lower", "unresolved"),
        ([100, 101, 99, 100, 100], [100, 160, 60, 100, 70], "higher", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert suite.verdict(a, b, better, 0.1) == expected


def test_compare_reads_two_sets(tmp_path, capsys):
    def write(path, ops):
        runs = [
            {"workload": "infer", "trace": 0,
             "metrics": {metric["name"]: 1.0 for metric in BENCHMARK["end_to_end"]}
             | {"ops_per_s": value}}
            for value in ops
        ]
        path.write_text(json.dumps({"runs": runs}))

    write(tmp_path / "a.json", [100, 101, 99, 100, 100])
    write(tmp_path / "b.json", [50, 51, 49, 50, 50])
    rows = suite.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                         BENCHMARK)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("ops_per_s") == "worse"
    assert set(verdicts.values()) == {"unchanged"}
    assert suite.main(["compare", str(tmp_path / "a.json"),
                       str(tmp_path / "b.json")]) == 1
    assert "worse" in capsys.readouterr().out
