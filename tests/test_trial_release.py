"""A finished trial is freed by reference counting, not by the collector.

A page load's stack is wired by callbacks that point back up (link end
to host, transport to TLS session, timer to connection, response
handle to browser), so an unreleased result is one reference cycle that
keeps the whole trial (trace rows, capture records, frames) alive until
a full collection.  :meth:`TrialResult.release` breaks it where a
result is finished.  Each case runs a trial once to warm imports and
caches, then again with the cyclic collector off: afterwards
``gc.collect()`` must find nothing unreachable.
"""

import gc

import pytest

from repro.campaign.engine import CampaignConfig, ShardTask
from repro.core.adversary import AdversaryConfig
from repro.experiments.harness import (
    TrialConfig,
    run_trial,
    summarize_result,
    summarize_trial,
)
from repro.experiments.hotpath import reference_config
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


@pytest.mark.parametrize("transport", ["tcp", "quic"])
@pytest.mark.parametrize("kind, trial", [("table1", 0), ("fig6", 3)])
def test_summarized_trial_leaves_no_cyclic_garbage(transport, kind, trial):
    config = reference_config(kind)
    config.transport = transport
    workload = VolunteerWorkload(seed=7)
    assert _cyclic_garbage(lambda: summarize_trial(trial, workload, config)) == 0


def test_faulted_load_cut_at_the_horizon_leaves_no_cyclic_garbage():
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

    def call():
        with run_trial(2, VolunteerWorkload(seed=7), config) as result:
            # Cut mid-load: armed timers and their events must go too.
            assert result.topology.sim.pending_events > 0
            summarize_result(result)

    assert _cyclic_garbage(call) == 0


def test_full_mode_campaign_session_leaves_no_cyclic_garbage():
    task = ShardTask(CampaignConfig(sessions=1, shard_size=1, mode="full"))
    assert _cyclic_garbage(lambda: task(0)) == 0


def test_released_result_is_dead():
    with run_trial(0, VolunteerWorkload(seed=7), reference_config("table1")) as result:
        browser = result.browser
    with pytest.raises(AttributeError):
        result.completed
    with pytest.raises(AttributeError):
        browser.page_complete
