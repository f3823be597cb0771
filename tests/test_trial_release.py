"""A finished trial is freed by reference counting, not by the collector.

A page load's stack is wired by callbacks that point back up (link end
to host, transport to TLS session, timer to connection, response
handle to browser), so an unreleased result is one reference cycle that
keeps the whole trial (trace rows, capture records, frames) alive until
a full collection.  :meth:`TrialResult.release` breaks it where a
result is finished.  Each case runs a trial once to warm imports and
caches, then again with the cyclic collector off: afterwards
``gc.collect()`` must find nothing unreachable.

Every caller that releases its result does so under
:func:`collector_paused`, so with the collector on, a call of each
shape must see no collector pass at all, and the pause must leave the
collector as it found it.
"""

import gc

import pytest

from repro import quick_attack
from repro.campaign.engine import CampaignConfig, ShardTask
from repro.core.adversary import AdversaryConfig
from repro.experiments.fingerprint_study import _FingerprintVisit
from repro.experiments.generalization import run_generated_trial
from repro.experiments.harness import (
    TrialConfig,
    collector_paused,
    run_trial,
    summarize_result,
    summarize_trial,
)
from repro.experiments.hotpath import reference_config
from repro.experiments.partial_mux import _PartialMuxTrial
from repro.experiments.transport_study import _TransportTrial
from repro.netsim.faults import (
    Duplication,
    FaultSchedule,
    GilbertElliottLoss,
    Outage,
    ReorderWindow,
)
from repro.web.workload import VolunteerWorkload


def _cyclic_garbage(call):
    """Objects the cyclic collector finds unreachable after ``call()``."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _collector_passes(call):
    """Collector passes per generation during ``call()``, collector on.

    The first call warms imports, caches and the interpreter's free
    lists (a full collection empties them, and refilling them counts
    as allocation); the young collection then zeroes the young count,
    so a call that allocates and frees a whole trial under the pause
    starts and ends below the young threshold.
    """
    call()
    gc.collect(0)
    before = gc.get_stats()
    call()
    return [
        after["collections"] - prior["collections"]
        for prior, after in zip(before, gc.get_stats())
    ]


def _summarized(kind, trial, transport):
    config = reference_config(kind)
    config.transport = transport
    return lambda: summarize_trial(trial, VolunteerWorkload(seed=7), config)


def _faulted_load():
    faults = FaultSchedule((
        GilbertElliottLoss(start=0.0, duration=30.0, mean_good=1.0,
                           mean_bad=0.05),
        Duplication(start=0.0, duration=30.0, probability=0.05),
        ReorderWindow(start=1.0, duration=5.0, probability=0.3,
                      max_delay=0.010),
        Outage(start=2.5, duration=0.4),
    ))
    config = TrialConfig(
        adversary=AdversaryConfig(max_drop_retries=1),
        faults=faults,
        fault_location="both",
        horizon=3.0,
    )
    workload = VolunteerWorkload(seed=7)
    with collector_paused(), run_trial(2, workload, config) as result:
        # Cut mid-load: armed timers and their events must go too.
        assert result.topology.sim.pending_events > 0
        summarize_result(result)


def _full_mode_session():
    ShardTask(CampaignConfig(sessions=1, shard_size=1, mode="full"))(0)


#: Every other caller that runs a load and releases it in one block.
RELEASE_SITES = {
    "quick_attack": lambda: quick_attack(0),
    "E12-generated-trial": lambda: run_generated_trial(0, 7, 15, 0),
    "E13-visit": lambda: _FingerprintVisit(7, 2, 1, True)(0),
    "E18-tcp": lambda: _TransportTrial(7, "tcp")(0),
    "E18-quic": lambda: _TransportTrial(7, "quic")(0),
    "E11-partial-mux": lambda: _PartialMuxTrial(7, 0.025)(0),
}

SHAPES = {
    **{
        f"summarized-{kind}-{transport}": _summarized(kind, trial, transport)
        for kind, trial in (("table1", 0), ("fig6", 3))
        for transport in ("tcp", "quic")
    },
    "faulted-load": _faulted_load,
    "full-mode-session": _full_mode_session,
    **RELEASE_SITES,
}


@pytest.mark.parametrize("transport", ["tcp", "quic"])
@pytest.mark.parametrize("kind, trial", [("table1", 0), ("fig6", 3)])
def test_summarized_trial_leaves_no_cyclic_garbage(transport, kind, trial):
    assert _cyclic_garbage(_summarized(kind, trial, transport)) == 0


def test_faulted_load_cut_at_the_horizon_leaves_no_cyclic_garbage():
    assert _cyclic_garbage(_faulted_load) == 0


def test_full_mode_campaign_session_leaves_no_cyclic_garbage():
    assert _cyclic_garbage(_full_mode_session) == 0


@pytest.mark.parametrize("site", RELEASE_SITES)
def test_release_site_leaves_no_cyclic_garbage(site):
    assert _cyclic_garbage(RELEASE_SITES[site]) == 0


@pytest.mark.parametrize("shape", SHAPES)
def test_released_load_runs_no_collector_pass(shape):
    assert _collector_passes(SHAPES[shape]) == [0, 0, 0]


def _failing_setup(controller):
    raise RuntimeError("controller setup failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_pause_restores_the_collector_state(enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="controller setup failed"):
            summarize_trial(
                0, VolunteerWorkload(seed=7),
                TrialConfig(controller_setup=_failing_setup),
            )
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_released_result_is_dead():
    with run_trial(0, VolunteerWorkload(seed=7), reference_config("table1")) as result:
        browser = result.browser
    with pytest.raises(AttributeError):
        result.completed
    with pytest.raises(AttributeError):
        browser.page_complete
