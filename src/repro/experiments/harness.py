"""Single-trial assembly and execution: the one page-load path.

One *trial* is one attacked (or baseline) page load: a fresh topology,
server, client, browser, network controller and optionally an
adversary, run to page completion or a horizon.  :func:`run_load` is
the only place that wires and runs such a load; it takes a
:class:`~repro.web.site.Page` — website, schedule and authority (the
site's host name, which is on the wire) — plus the page's random
streams and a :class:`TrialConfig`.  :func:`run_trial` runs volunteer
``trial`` of a :class:`~repro.web.workload.VolunteerWorkload` through
it; the generated-site study, the full-mode campaign, the
fingerprinting study and the scheduler ablation call it with their own
pages.  Everything is seeded, so runs are exactly reproducible.

Besides the live :class:`TrialResult` (which holds the simulator,
topology and server objects and therefore cannot leave the process
that ran the trial), this module defines the picklable
:class:`TrialSummary` — everything the experiment modules aggregate,
extracted worker-side so trials can run in a process pool (see
:mod:`repro.experiments.executor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import profiling
from repro.tcp.config import TCPConfig

from repro.core.adversary import Adversary, AdversaryConfig
from repro.core.controller import NetworkController
from repro.core.estimator import SizeEstimator
from repro.core.metrics import MultiplexingReport
from repro.core.monitor import GetRequestObservation, TrafficMonitor
from repro.core.predictor import Match, SizePredictor
from repro.core.sequence import SequenceAttack, SequenceAttackResult
from repro.h2.client import H2Client
from repro.h2.server import H2Server, ServerConfig
from repro.netsim.capture import Direction
from repro.netsim.faults import FaultSchedule
from repro.netsim.topology import PathTopology, build_adversary_path
from repro.simkernel.randomstream import RandomStreams
from repro.simkernel.trace import TraceLog
from repro.transport import resolve_transport
from repro.web.browser import Browser, BrowserConfig
from repro.web.site import LoadSchedule, Page
from repro.web.workload import VolunteerWorkload


@dataclass
class TrialConfig:
    """Parameters of one trial run.

    Attributes:
        adversary: attack configuration, or None for a clean baseline.
        controller_setup: hook receiving the
            :class:`~repro.core.controller.NetworkController` before the
            load starts — used by the single-parameter studies (install
            only a spacing filter, only a throttle, …).
        server: server behaviour overrides.
        browser: browser behaviour overrides.
        tcp: TCP parameters for both endpoints (None = defaults; the
            server side additionally gets the duplicate-delivery quirk
            per the server config).
        schedule_override: replace the site's schedule (defenses).
        horizon: absolute simulated-time budget for the load.
        settle_time: extra time after page completion before the
            capture is analyzed (lets in-flight packets land).
        faults: chaos-layer fault schedule (see
            :mod:`repro.netsim.faults`), or None for clean links.
        fault_location: which link(s) the schedule perturbs —
            ``"server"`` (the WAN hop), ``"client"`` (the LAN hop) or
            ``"both"``.
    """

    adversary: Optional[AdversaryConfig] = None
    controller_setup: Optional[Callable[[NetworkController], None]] = None
    server: ServerConfig = field(default_factory=ServerConfig)
    browser: BrowserConfig = field(default_factory=BrowserConfig)
    tcp: Optional[TCPConfig] = None
    schedule_override: Optional[LoadSchedule] = None
    horizon: float = 40.0
    settle_time: float = 0.3
    faults: Optional[FaultSchedule] = None
    fault_location: str = "server"
    #: Transport implementation for the whole stack: an explicit name
    #: ("tcp"/"quic") pins it; None defers to ``REPRO_TRANSPORT`` / the
    #: default at run time (resolved per trial, so spawned workers obey
    #: the environment hop).
    transport: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fault_location not in ("server", "client", "both"):
            raise ValueError(
                f"unknown fault location {self.fault_location!r}"
            )
        if self.transport is not None:
            resolve_transport(self.transport)  # fail fast on bad names


@dataclass
class TrialResult:
    """Everything one page load produced.

    ``site`` is the loaded page; :meth:`analyze` needs the isidewith
    page that :func:`run_trial` loads.
    """

    trial: int
    site: Page
    topology: PathTopology
    server: H2Server
    client: H2Client
    browser: Browser
    controller: NetworkController
    adversary: Optional[Adversary]
    monitor: TrafficMonitor
    report: MultiplexingReport
    trace: TraceLog
    completed: bool
    duration: float

    @property
    def broken(self) -> bool:
        """The paper's 'broken connection': the load never finished."""
        return not self.completed

    #: Retransmission trace categories, one per transport.  Exactly one
    #: is non-zero per trial, so summing keeps TCP trials byte-identical
    #: while QUIC trials report through the same counters.
    RETRANSMIT_CATEGORIES = ("tcp.retransmit", "quic.retransmit")

    def client_retransmissions(self) -> int:
        """Client-side retransmissions (Table I's counted quantity)."""
        return sum(
            len(
                self.trace.select(
                    category=category,
                    predicate=lambda r: str(r.get("conn", "")).startswith(
                        "client"
                    ),
                )
            )
            for category in self.RETRANSMIT_CATEGORIES
        )

    def total_retransmissions(self) -> int:
        return sum(
            self.trace.count(category=category)
            for category in self.RETRANSMIT_CATEGORIES
        )

    def duplicate_servings(self) -> int:
        """Response instances spawned by retransmitted (duplicate) GETs."""
        return sum(1 for inst in self.server.all_instances if inst.duplicate)

    def stream_resets(self) -> int:
        return len(self.trace.select(category="h2.rst_stream.sent"))

    def score_target(
        self,
        object_id: str,
        predictor: Optional[SizePredictor] = None,
    ) -> Tuple[bool, Optional[Match]]:
        """The paper's two halves of success (§V) for one target object.

        The target is *serialized* when a serving of it has degree 0.
        It is *identified* when the burst located for it (the estimate
        nearest its expected size, within tolerance) best matches it
        over the whole inventory; that match is returned, else None.
        ``predictor`` defaults to one over the page's own size map.

        Returns:
            ``(serialized, match)``.
        """
        serialized = self.report.min_degree(object_id) == 0.0
        if predictor is None:
            predictor = SizePredictor(self.site.website.size_map())
        estimates = SizeEstimator().estimate(self.monitor.response_packets())
        candidate = predictor.find_object(estimates, object_id)
        best = predictor.classify(candidate) if candidate is not None else None
        if best is not None and best.object_id != object_id:
            best = None
        return serialized, best

    def analyze(
        self, attack: Optional[SequenceAttack] = None
    ) -> SequenceAttackResult:
        """Run the offline attack analysis for this trial."""
        attack = attack or SequenceAttack(self.site)
        analysis_start = 0.0
        if self.adversary is not None:
            # The image sequence is recovered from traffic after the
            # drop window (the adversary controls both timestamps).
            if self.adversary.escalation_time is not None:
                analysis_start = self.adversary.escalation_time
            elif self.adversary.trigger_time is not None:
                analysis_start = self.adversary.trigger_time
        return attack.analyze(
            self.monitor,
            self.report,
            analysis_start=analysis_start,
            broken_connection=self.broken,
            attack_aborted=(
                self.adversary is not None and self.adversary.aborted
            ),
        )


# ---------------------------------------------------------------------------
# Picklable controller setups
#
# ``TrialConfig.controller_setup`` must cross a process boundary when
# trials run on the process backend, so the common setups are plain
# module-level dataclasses rather than closures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacingSetup:
    """Install the §IV-B GET-spacing filter."""

    spacing: float
    noise_fraction: float = 0.5

    def __call__(self, controller: NetworkController) -> None:
        controller.install_spacing(
            self.spacing, noise_fraction=self.noise_fraction
        )


@dataclass(frozen=True)
class UniformDelaySetup:
    """Install the §IV-A constant per-packet delay."""

    delay: float
    direction: Optional[Direction] = None

    def __call__(self, controller: NetworkController) -> None:
        controller.install_uniform_delay(self.delay, self.direction)


@dataclass(frozen=True)
class SpacingAndBandwidthSetup:
    """Spacing filter plus a token-bucket throttle (the Fig. 5 sweep)."""

    spacing: float
    bits_per_second: float
    burst_bytes: int = 32 * 1024
    noise_fraction: float = 0.5

    def __call__(self, controller: NetworkController) -> None:
        controller.install_spacing(
            self.spacing, noise_fraction=self.noise_fraction
        )
        controller.limit_bandwidth(
            self.bits_per_second, burst_bytes=self.burst_bytes
        )


# ---------------------------------------------------------------------------
# Picklable trial summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectDegrees:
    """Ground-truth multiplexing degrees of one object in one trial."""

    min_degree: Optional[float]
    original_degree: Optional[float]


@dataclass
class TrialSummary:
    """Everything the experiment modules aggregate from one trial.

    A :class:`TrialResult` holds live simulator, topology and server
    objects and cannot cross a process boundary; this summary is plain
    data, extracted worker-side by :func:`summarize_result`.

    Attributes:
        trial: the trial index.
        completed: the page load finished (not the paper's "broken
            connection").
        duration: simulated seconds the trial ran.
        client_retransmissions: client-side TCP retransmissions
            (Table I's counted quantity).
        total_retransmissions: both endpoints' TCP retransmissions.
        duplicate_servings: response instances spawned by retransmitted
            (duplicate) GETs.
        stream_resets: RST_STREAM frames sent.
        browser_resets: streams the browser reset (the §IV-D count).
        server_retransmitted_segments: TCP segments the server's first
            connection retransmitted (the E8h recovery-cost metric).
        object_degrees: per object id, its ground-truth min/original
            degree of multiplexing.
        inter_get_gaps: gaps between consecutive observed GETs.
        get_requests: the monitor's GET observations (trigger studies).
        trace_categories: histogram of trace categories.
        analysis: the offline attack analysis, when requested.
        attack_phase: the adversary's final phase (None for baselines).
        attack_retries: drop-window retries the adversary spent.
        attack_aborted: the adversary exhausted its retry budget.
    """

    trial: int
    completed: bool
    duration: float
    client_retransmissions: int
    total_retransmissions: int
    duplicate_servings: int
    stream_resets: int
    browser_resets: int
    server_retransmitted_segments: int
    object_degrees: Dict[str, ObjectDegrees] = field(default_factory=dict)
    inter_get_gaps: List[float] = field(default_factory=list)
    get_requests: List[GetRequestObservation] = field(default_factory=list)
    trace_categories: Dict[str, int] = field(default_factory=dict)
    analysis: Optional[SequenceAttackResult] = None
    attack_phase: Optional[str] = None
    attack_retries: int = 0
    attack_aborted: bool = False

    @property
    def broken(self) -> bool:
        """The paper's 'broken connection': the load never finished."""
        return not self.completed

    def min_degree(self, object_id: str) -> Optional[float]:
        """Lowest degree across all servings (duplicates included)."""
        degrees = self.object_degrees.get(object_id)
        return degrees.min_degree if degrees is not None else None

    def original_degree(self, object_id: str) -> Optional[float]:
        """Degree of the first (non-duplicate) serving, or None."""
        degrees = self.object_degrees.get(object_id)
        return degrees.original_degree if degrees is not None else None


def summarize_result(result: "TrialResult", analyze: bool = True) -> TrialSummary:
    """Extract the picklable summary of one finished trial.

    Must run in the process that ran the trial (it walks the live
    server/report/monitor objects).
    """
    per_object: Dict[str, ObjectDegrees] = {}
    for object_id in sorted(
        {instance.object_id for instance in result.report.degrees}
    ):
        per_object[object_id] = ObjectDegrees(
            min_degree=result.report.min_degree(object_id),
            original_degree=result.report.original_degree(object_id),
        )
    get_requests = result.monitor.get_requests()
    times = [observation.time for observation in get_requests]
    return TrialSummary(
        trial=result.trial,
        completed=result.completed,
        duration=result.duration,
        client_retransmissions=result.client_retransmissions(),
        total_retransmissions=result.total_retransmissions(),
        duplicate_servings=result.duplicate_servings(),
        stream_resets=result.stream_resets(),
        browser_resets=result.browser.resets_sent,
        server_retransmitted_segments=(
            result.server.connections[0].tcp.retransmitted_segments
            if result.server.connections else 0
        ),
        object_degrees=per_object,
        inter_get_gaps=[b - a for a, b in zip(times, times[1:])],
        get_requests=get_requests,
        trace_categories=result.trace.categories(),
        analysis=result.analyze() if analyze else None,
        attack_phase=(
            result.adversary.phase.value if result.adversary else None
        ),
        attack_retries=(
            result.adversary.retries_used if result.adversary else 0
        ),
        attack_aborted=(
            result.adversary.aborted if result.adversary else False
        ),
    )


def summarize_trial(
    trial: int,
    workload: VolunteerWorkload,
    config: Optional[TrialConfig] = None,
    analyze: bool = True,
) -> TrialSummary:
    """Run one trial and return its picklable summary."""
    return summarize_result(run_trial(trial, workload, config), analyze=analyze)


def run_trial(
    trial: int,
    workload: VolunteerWorkload,
    config: Optional[TrialConfig] = None,
) -> TrialResult:
    """Run volunteer ``trial``'s isidewith load through :func:`run_load`.

    The page is ``workload.session(trial)``, whose authority is
    ``www.isidewith.com``; its streams are ``workload.trial_rng(trial)``.
    """
    return run_load(
        workload.session(trial), workload.trial_rng(trial), config, trial
    )


def run_load(
    page: Page,
    rng: RandomStreams,
    config: Optional[TrialConfig] = None,
    trial: int = 0,
) -> TrialResult:
    """Assemble and run one page load end to end.

    ``rng`` seeds the topology and feeds the server's think times and
    the controller's actuator noise; ``trial`` only labels the result.
    The load runs in 0.5 s slices until the page completes (then for
    ``config.settle_time`` more), the browser gives up, or the horizon.

    When a profiler is active (see :mod:`repro.profiling`) the load's
    phases are wall-clock timed and its subsystem counters harvested
    after the run.  Profiling only *reads* state the simulation already
    maintains, so results are byte-identical with it on or off.
    """
    profiler = profiling.active()
    phase_start = time.perf_counter() if profiler is not None else 0.0
    config = config or TrialConfig()

    fault_at = config.fault_location
    topology = build_adversary_path(
        seed=rng.master_seed,
        client_faults=(
            config.faults if fault_at in ("client", "both") else None
        ),
        server_faults=(
            config.faults if fault_at in ("server", "both") else None
        ),
    )
    sim = topology.sim
    trace = topology.trace

    transport = resolve_transport(config.transport)
    server_tcp = None
    if config.tcp is not None:
        server_tcp = replace(
            config.tcp,
            deliver_duplicate_messages=config.server.serve_duplicate_requests,
        )
    server = H2Server(
        sim,
        topology.server,
        443,
        page.website.router,
        config=config.server,
        tcp_config=server_tcp,
        trace=trace,
        rng=rng,
        transport=transport,
    )
    client = H2Client(
        sim,
        topology.client,
        topology.server.endpoint(443),
        tcp_config=config.tcp,
        trace=trace,
        authority=page.authority,
        transport=transport,
    )
    schedule = config.schedule_override or page.schedule
    browser = Browser(sim, client, schedule, config=config.browser, trace=trace)

    controller = NetworkController(sim, topology.middlebox, rng, trace=trace)
    adversary: Optional[Adversary] = None
    if config.adversary is not None:
        adversary = Adversary(controller, config.adversary, trace=trace)
        adversary.arm()
    if config.controller_setup is not None:
        config.controller_setup(controller)

    if profiler is not None:
        now = time.perf_counter()
        profiler.add_time("trial.setup", now - phase_start)
        phase_start = now

    browser.start()

    # Run in slices so we can stop soon after the page completes.
    slice_length = 0.5
    while sim.now < config.horizon:
        sim.run_until(min(sim.now + slice_length, config.horizon))
        if browser.broken:
            break
        if browser.page_complete:
            sim.run_until(min(sim.now + config.settle_time, config.horizon))
            break

    if profiler is not None:
        now = time.perf_counter()
        profiler.add_time("trial.simulate", now - phase_start)
        phase_start = now

    completed = browser.page_complete and not browser.broken
    monitor = TrafficMonitor(topology.middlebox.capture)
    if server.connections:
        report = MultiplexingReport.from_layout(
            server.connections[0].tcp.layout
        )
    else:
        report = MultiplexingReport()

    if profiler is not None:
        profiler.add_time("trial.collect", time.perf_counter() - phase_start)
        profiler.count("trials")
        profiler.count("sim.events", sim.events_executed)
        profiler.count("net.packets", len(topology.middlebox.capture))
        profiler.count("trace.records", len(trace))
        profiler.count(
            "h2.frames_sent",
            client.h2.frames_sent
            + sum(conn.h2.frames_sent for conn in server.connections),
        )
        profiler.count(
            "tcp.retransmitted_segments",
            client.tcp.retransmitted_segments
            + sum(conn.tcp.retransmitted_segments for conn in server.connections),
        )
        profiler.gauge_max("mem.peak_rss_kb", profiling.peak_rss_kb())

    return TrialResult(
        trial=trial,
        site=page,
        topology=topology,
        server=server,
        client=client,
        browser=browser,
        controller=controller,
        adversary=adversary,
        monitor=monitor,
        report=report,
        trace=trace,
        completed=completed,
        duration=sim.now,
    )
