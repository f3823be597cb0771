"""Tests for capture persistence and terminal plotting."""

import pytest

from repro.experiments.plotting import bar_chart, line_chart, series_from_rows
from repro.netsim.capture import CaptureLog, Direction, PacketRecord
from repro.netsim.traceio import load_capture, save_capture


def _record(time=1.0, dropped=False):
    return PacketRecord(
        time=time, direction=Direction.SERVER_TO_CLIENT, packet_id=7,
        wire_size=1500, payload_bytes=1448, flags=("ACK",), seq=100,
        ack=50, tls_content_types=(23,), tls_record_lengths=(1448,),
        dropped_by_adversary=dropped,
    )


def test_capture_roundtrip(tmp_path):
    capture = CaptureLog()
    capture.append(_record(1.0))
    capture.append(_record(2.0, dropped=True))
    path = tmp_path / "trace.jsonl"
    assert save_capture(capture, path) == 2
    loaded = load_capture(path)
    assert list(loaded) == list(capture)
    assert loaded[1].dropped_by_adversary


def test_capture_roundtrip_preserves_analysis(tmp_path):
    """A reloaded trace feeds the monitor identically."""
    from repro.core.monitor import TrafficMonitor
    from repro.experiments.harness import TrialConfig, run_trial
    from repro.web.workload import VolunteerWorkload

    outcome = run_trial(0, VolunteerWorkload(seed=7), TrialConfig())
    path = tmp_path / "trial.jsonl"
    save_capture(outcome.topology.middlebox.capture, path)
    reloaded = TrafficMonitor(load_capture(path))
    original = outcome.monitor
    assert len(reloaded.get_requests()) == len(original.get_requests())
    assert len(reloaded.response_packets()) == len(original.response_packets())


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "pcap"}\n')
    with pytest.raises(ValueError):
        load_capture(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_capture(path)


def test_load_rejects_future_version(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text('{"format": "repro-capture", "version": 99}\n')
    with pytest.raises(ValueError):
        load_capture(path)


# -- plotting ----------------------------------------------------------------

def test_bar_chart_renders():
    chart = bar_chart(["a", "bb"], [1.0, 2.0], width=10, title="T", unit="%")
    lines = chart.splitlines()
    assert lines[0] == "T"
    assert "bb" in lines[2]
    assert lines[2].count("█") == 10  # the max fills the width
    assert lines[1].count("█") == 5


def test_bar_chart_zero_values():
    chart = bar_chart(["x"], [0.0])
    assert "x" in chart


def test_bar_chart_validation():
    with pytest.raises(ValueError):
        bar_chart([], [])
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])


def test_line_chart_renders():
    chart = line_chart([0, 1, 2, 3], [0, 1, 4, 9], width=20, height=6,
                       title="squares")
    assert "squares" in chart
    assert "●" in chart
    assert chart.count("\n") >= 7


def test_line_chart_flat_series():
    chart = line_chart([0, 1], [5, 5])
    assert "●" in chart


def test_line_chart_validation():
    with pytest.raises(ValueError):
        line_chart([1], [1])


def test_series_from_rows():
    rows = [["1000", "29", "87%"], ["800", "31", "90%"]]
    xs, ys = series_from_rows(rows, 0, 2)
    assert xs == [1000.0, 800.0]
    assert ys == [87.0, 90.0]
