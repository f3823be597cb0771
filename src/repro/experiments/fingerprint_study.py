"""E13 — the full-fledged privacy attack: webpage fingerprinting.

Builds a closed world of pages **engineered to defeat total-size
fingerprinting**: every page transfers the same total bytes, but splits
them into a different multiset of object sizes.  Multiplexed, their
traces look alike (one big interleaved transfer of equal volume);
serialized by the attack, the per-object sizes separate them.

This is the end of the paper's §III chain of assumptions: the attack
recovers object sizes, and a classical HTTP/1.x-style fingerprinting
classifier does the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimator import SizeEstimator
from repro.core.fingerprint import PageFingerprinter, trace_features
from repro.core.monitor import TrafficMonitor
from repro.experiments.executor import TrialExecutor
from repro.experiments.harness import (
    SpacingSetup,
    TrialConfig,
    collector_paused,
    run_load,
)
from repro.experiments.report import format_table, percentage
from repro.simkernel.randomstream import RandomStreams
from repro.web.objects import WebObject
from repro.web.site import LoadSchedule, Page, ScheduledRequest, Website

#: Every page transfers this many application bytes in total.
PAGE_TOTAL_BYTES = 240_000

#: Objects per page.
OBJECTS_PER_PAGE = 8


def build_closed_world(
    rng: RandomStreams,
    pages: int = 6,
) -> Dict[str, Website]:
    """Equal-total pages with distinct object-size compositions."""
    world: Dict[str, Website] = {}
    for page_index in range(pages):
        stream = rng.stream(f"page-{page_index}")
        # Random positive partition of the total into OBJECTS_PER_PAGE.
        cuts = sorted(
            stream.randint(10_000, PAGE_TOTAL_BYTES - 10_000)
            for _ in range(OBJECTS_PER_PAGE - 1)
        )
        bounds = [0] + cuts + [PAGE_TOTAL_BYTES]
        sizes = [max(2_000, b - a) for a, b in zip(bounds, bounds[1:])]
        # Renormalize so the totals match exactly despite the clamping.
        drift = PAGE_TOTAL_BYTES - sum(sizes)
        sizes[-1] = max(2_000, sizes[-1] + drift)
        objects = [
            WebObject(
                f"/p{page_index}/obj{obj_index}.bin",
                size,
                "application/octet-stream",
                think_time_range=(0.0005, 0.004),
            )
            for obj_index, size in enumerate(sizes)
        ]
        world[f"page{page_index}"] = Website(f"page{page_index}", objects)
    return world


def _page_schedule(website: Website, rng: RandomStreams) -> LoadSchedule:
    """A pipelined burst load of the page (requests ~1 ms apart)."""
    requests = [
        ScheduledRequest(
            rng.uniform("fp-gap", 0.0005, 0.002) if index else 0.02,
            obj,
        )
        for index, obj in enumerate(website.objects.values())
    ]
    return LoadSchedule(requests)


def _visit(
    website: Website,
    rng: RandomStreams,
    attacked: bool,
    spacing: float = 0.350,
) -> TrafficMonitor:
    """One page visit; returns the gateway's view of it."""
    page = Page(website, _page_schedule(website, rng), "world.example")
    config = TrialConfig(
        controller_setup=(
            SpacingSetup(spacing, noise_fraction=0.1) if attacked else None
        ),
        horizon=30.0,
    )
    with collector_paused(), run_load(page, rng, config) as result:
        return result.monitor


@dataclass(frozen=True)
class _FingerprintVisit:
    """One page visit of the closed world, featurized worker-side.

    The visit index enumerates ``pages × visits_per_page`` loads; the
    world is rebuilt from the seed in the worker (all substreams are
    key-derived, so the rebuild is bit-identical to the parent's).
    Returns ``(label, visit, features)``.
    """

    seed: int
    pages: int
    visits_per_page: int
    attacked: bool

    def __call__(self, index: int) -> Tuple[str, int, List[float]]:
        master = RandomStreams(self.seed)
        world = build_closed_world(master.spawn("world"), pages=self.pages)
        label = f"page{index // self.visits_per_page}"
        visit = index % self.visits_per_page
        website = world[label]
        rng = master.spawn(
            f"visit-{label}-{visit}-{'atk' if self.attacked else 'base'}"
        )
        monitor = _visit(website, rng, self.attacked)
        # A patient estimator: these pages carry objects large enough
        # that slow-start stalls occur mid-transfer.
        features = trace_features(
            monitor, estimator=SizeEstimator(delimiter_gap=0.040)
        )
        return label, visit, list(features)


@dataclass
class FingerprintStudyResult:
    rows_data: List[List[str]] = field(default_factory=list)
    chance_pct: float = 0.0

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        table = format_table(
            ["condition", "page classification accuracy"],
            self.rows(),
            title="E13 — closed-world fingerprinting (equal-total pages)",
        )
        return table + f"\nchance: {self.chance_pct:.0f}%"


def run(
    pages: int = 6,
    train_visits: int = 3,
    test_visits: int = 2,
    seed: int = 7,
    workers: Optional[int] = None,
) -> FingerprintStudyResult:
    """Train/test the fingerprinter under both conditions."""
    executor = TrialExecutor(workers=workers)
    visits_per_page = train_visits + test_visits
    result = FingerprintStudyResult(chance_pct=100.0 / pages)

    for attacked in (False, True):
        train_features: List[List[float]] = []
        train_labels: List[str] = []
        test_features: List[List[float]] = []
        test_labels: List[str] = []
        visits = executor.map_trials(
            pages * visits_per_page,
            _FingerprintVisit(seed, pages, visits_per_page, attacked),
        )
        for label, visit, features in visits:
            if visit < train_visits:
                train_features.append(features)
                train_labels.append(label)
            else:
                test_features.append(features)
                test_labels.append(label)
        fingerprinter = PageFingerprinter(k=3).fit(
            train_features, train_labels
        )
        accuracy = fingerprinter.accuracy(test_features, test_labels)
        result.rows_data.append([
            "attacked (serialized)" if attacked else "passive (multiplexed)",
            f"{accuracy * 100:.0f}%",
        ])
    return result
