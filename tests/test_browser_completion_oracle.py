"""``Browser.page_complete`` and ``missing_objects`` against a scan.

The browser keeps the set of scheduled objects that have a completed
response handle and answers from it.  ``_scan_*`` below are the earlier
implementation, which rescanned every scheduled object's handles on
each call; the test compares both after every completion of a whole
load, over loads that reset streams and adopt server pushes.
"""

import pytest

from repro.core.adversary import AdversaryConfig
from repro.core.defenses import ServerPushDefense
from repro.experiments.harness import TrialConfig, run_trial
from repro.experiments.hotpath import reference_config
from repro.h2.server import ServerConfig
from repro.web.browser import Browser
from repro.web.workload import VolunteerWorkload


def _scan_missing(browser):
    missing = []
    for request in browser.schedule:
        handles = browser.handles_by_object.get(request.obj.object_id, [])
        if not any(h.complete for h in handles):
            missing.append(request)
    return missing


def _scan_page_complete(browser):
    return browser._next_index >= len(browser.schedule) and not _scan_missing(
        browser
    )


def _push_config(adversary=None):
    site = VolunteerWorkload(seed=7).session(0)
    return TrialConfig(
        server=ServerConfig(push_map=ServerPushDefense().push_map(site)),
        adversary=adversary,
    )


@pytest.mark.parametrize("config, trial", [
    (reference_config("table1"), 0),
    (reference_config("fig6"), 3),
    (_push_config(), 0),
    (_push_config(AdversaryConfig(drop_rate=0.8)), 0),
], ids=["table1", "fig6", "push", "push-attacked"])
def test_completion_count_matches_the_scan(monkeypatch, config, trial):
    checks = []
    original = Browser._on_object_complete

    def checked(browser, object_id, handle):
        original(browser, object_id, handle)
        assert browser.page_complete == _scan_page_complete(browser)
        assert browser.missing_objects == _scan_missing(browser)
        checks.append(handle)

    monkeypatch.setattr(Browser, "_on_object_complete", checked)
    with run_trial(trial, VolunteerWorkload(seed=7), config) as result:
        browser = result.browser
        assert browser.page_complete == _scan_page_complete(browser)
        assert browser.missing_objects == _scan_missing(browser)
        assert result.completed
        handles = [h for hs in browser.handles_by_object.values() for h in hs]
        assert len(checks) >= len(browser.schedule)
        if config.adversary is not None:
            assert browser.resets_sent > 0
            assert any(h.reset for h in handles)
        if config.server.push_map:
            assert any(h.pushed for h in checks)
