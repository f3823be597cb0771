"""E8 — ablations of the modelling and design choices (DESIGN.md §5).

Five studies:

* ``run_quirk``      — duplicate-request serving on vs off (the §IV-B
                       server behaviour): without it, jitter costs the
                       adversary nothing and serialization is easier.
* ``run_actuator``   — ideal (noise-free) vs realistic spacing filter:
                       a perfect actuator pushes Table II's sequence
                       accuracy to ~100 %, locating the paper's losses
                       in jitter imprecision.
* ``run_scheduler``  — FIFO vs round-robin multiplexing scheduler: a
                       FIFO server never multiplexes, so the *passive*
                       estimator already works (HTTP/2 without
                       multiplexing provides no privacy).
* ``run_defense``    — the §VII priority-shuffle defense: randomizing
                       the image request order per load collapses the
                       sequence attack's positional accuracy to chance
                       while single-object identification survives.
* ``run_h1_baseline``— HTTP/1.1 vs HTTP/2: the passive size
                       side-channel against the sequential protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.adversary import AdversaryConfig
from repro.core.defenses import PriorityShuffleDefense
from repro.core.estimator import SizeEstimator
from repro.core.monitor import TrafficMonitor
from repro.core.predictor import SizePredictor
from repro.experiments.executor import TrialExecutor
from repro.experiments.harness import (
    SpacingSetup,
    TrialConfig,
    TrialSummary,
    summarize_trial,
)
from repro.experiments.report import format_table, percentage
from repro.h1.client import H1Client
from repro.h1.server import H1Server
from repro.h2.mux import FifoScheduler
from repro.h2.server import ServerConfig
from repro.netsim.topology import build_adversary_path
from repro.tcp.config import TCPConfig
from repro.web.isidewith import HTML_OBJECT_ID
from repro.web.workload import VolunteerWorkload


# ---------------------------------------------------------------------------
# (a) duplicate-serving quirk
# ---------------------------------------------------------------------------

@dataclass
class QuirkResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["duplicate serving", "HTML not multiplexed", "duplicate servings"],
            self.rows(),
            title="E8a — the §IV-B duplicate-serving quirk",
        )


@dataclass(frozen=True)
class _QuirkTrial:
    seed: int
    spacing: float
    quirk: bool

    def __call__(self, trial: int) -> TrialSummary:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(
            server=ServerConfig(serve_duplicate_requests=self.quirk),
            controller_setup=SpacingSetup(self.spacing),
        )
        return summarize_trial(trial, workload, config, analyze=False)


def run_quirk(trials: int = 20, seed: int = 7, spacing: float = 0.050,
              workers: Optional[int] = None) -> QuirkResult:
    """Jitter sweep point at 50 ms with the quirk on vs off."""
    executor = TrialExecutor(workers=workers)
    result = QuirkResult()
    for quirk in (True, False):
        not_multiplexed = 0
        duplicates = 0
        for summary in executor.map_trials(
            trials, _QuirkTrial(seed, spacing, quirk)
        ):
            if summary.min_degree(HTML_OBJECT_ID) == 0.0:
                not_multiplexed += 1
            duplicates += summary.duplicate_servings
        result.rows_data.append([
            "on (paper)" if quirk else "off (textbook TCP)",
            f"{percentage(not_multiplexed, trials):.0f}%",
            str(duplicates),
        ])
    return result


# ---------------------------------------------------------------------------
# (b) actuator precision
# ---------------------------------------------------------------------------

@dataclass
class ActuatorResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["actuator", "sequence fully correct", "mean positions correct"],
            self.rows(),
            title="E8b — ideal vs realistic jitter actuator",
        )


@dataclass(frozen=True)
class _ActuatorTrial:
    seed: int
    mode: str

    def __call__(self, trial: int) -> TrialSummary:
        workload = VolunteerWorkload(seed=self.seed)
        adversary = AdversaryConfig(jitter_mode=self.mode)
        return summarize_trial(
            trial, workload, TrialConfig(adversary=adversary)
        )


def run_actuator(trials: int = 15, seed: int = 7,
                 workers: Optional[int] = None) -> ActuatorResult:
    """Full attack with a perfect vs noisy spacing actuator."""
    executor = TrialExecutor(workers=workers)
    result = ActuatorResult()
    for mode, label in (("ideal", "ideal (no noise)"),
                        ("spacing", "realistic (tc/netem)")):
        fully_correct = 0
        positions_total = 0
        for summary in executor.map_trials(trials, _ActuatorTrial(seed, mode)):
            analysis = summary.analysis
            correct = sum(
                1 for object_id in analysis.sequence_truth
                if analysis.sequence_correct.get(object_id)
            )
            positions_total += correct
            if correct == len(analysis.sequence_truth):
                fully_correct += 1
        result.rows_data.append([
            label,
            f"{percentage(fully_correct, trials):.0f}%",
            f"{positions_total / trials:.1f}/8",
        ])
    return result


# ---------------------------------------------------------------------------
# (c) multiplexing scheduler
# ---------------------------------------------------------------------------

@dataclass
class SchedulerResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["scheduler", "HTML not multiplexed (no adversary)",
             "HTML passively identified"],
            self.rows(),
            title="E8c — multiplexing scheduler (privacy source)",
        )


@dataclass(frozen=True)
class _SchedulerTrial:
    seed: int
    fifo: bool

    def __call__(self, trial: int) -> TrialSummary:
        config = TrialConfig()
        if self.fifo:
            config.server = ServerConfig(scheduler_factory=FifoScheduler)
        return summarize_trial(trial, VolunteerWorkload(seed=self.seed), config)


def run_scheduler(trials: int = 15, seed: int = 7,
                  workers: Optional[int] = None) -> SchedulerResult:
    """Baseline loads under round-robin vs FIFO response scheduling."""
    executor = TrialExecutor(workers=workers)
    result = SchedulerResult()
    for fifo in (False, True):
        not_multiplexed = 0
        identified = 0
        for summary in executor.map_trials(trials, _SchedulerTrial(seed, fifo)):
            if summary.min_degree(HTML_OBJECT_ID) == 0.0:
                not_multiplexed += 1
            verdict = summary.analysis.single_object[HTML_OBJECT_ID]
            if verdict.identified and verdict.degree_zero:
                identified += 1
        result.rows_data.append([
            "FIFO (sequential)" if fifo else "round-robin (multi-threaded)",
            f"{percentage(not_multiplexed, trials):.0f}%",
            f"{percentage(identified, trials):.0f}%",
        ])
    return result


# ---------------------------------------------------------------------------
# (d) priority-shuffle defense (§VII)
# ---------------------------------------------------------------------------

@dataclass
class DefenseResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["client", "order recovered (vs true preference)",
             "order recovered (vs wire order)", "sizes identified"],
            self.rows(),
            title="E8d — §VII priority-shuffle defense vs the attack",
        )


@dataclass(frozen=True)
class _DefenseTrial:
    """One attacked load, optionally shuffle-defended.

    Returns the summary plus the wire order actually requested (the
    parent needs it to score order recovery against the network view).
    """

    seed: int
    defense: PriorityShuffleDefense
    defended: bool

    def __call__(self, trial: int) -> Tuple[TrialSummary, Tuple[str, ...]]:
        workload = VolunteerWorkload(seed=self.seed)
        site = workload.session(trial)
        rng = workload.trial_rng(trial)
        config = TrialConfig(adversary=AdversaryConfig())
        wire_order = site.party_order
        if self.defended:
            schedule, wire_order = self.defense.apply(site, rng)
            config.schedule_override = schedule
        return summarize_trial(trial, workload, config), tuple(wire_order)


def run_defense(trials: int = 15, seed: int = 7,
                workers: Optional[int] = None) -> DefenseResult:
    """Full attack against a vanilla vs a shuffle-defended client."""
    workload = VolunteerWorkload(seed=seed)
    defense = PriorityShuffleDefense()
    executor = TrialExecutor(workers=workers)
    result = DefenseResult()
    for defended in (False, True):
        truth_positions = 0
        wire_positions = 0
        sizes_found = 0
        size_total = 0
        outcomes = executor.map_trials(
            trials, _DefenseTrial(seed, defense, defended)
        )
        for trial, (summary, wire_order) in enumerate(outcomes):
            analysis = summary.analysis
            predicted = [
                object_id.replace("emblem-", "")
                for object_id in analysis.sequence_prediction
            ]
            party_order = workload.party_order_for(trial)
            for position, party in enumerate(party_order):
                size_total += 1
                verdict = analysis.single_object.get(f"emblem-{party}")
                if verdict is not None and verdict.identified:
                    sizes_found += 1
                if position < len(predicted) and predicted[position] == party:
                    truth_positions += 1
            for position, party in enumerate(wire_order):
                if position < len(predicted) and predicted[position] == party:
                    wire_positions += 1
        denominator = trials * 8
        result.rows_data.append([
            "defended (shuffled)" if defended else "vanilla",
            f"{percentage(truth_positions, denominator):.0f}%",
            f"{percentage(wire_positions, denominator):.0f}%",
            f"{percentage(sizes_found, size_total):.0f}%",
        ])
    return result


# ---------------------------------------------------------------------------
# (e) HTTP/1.1 baseline
# ---------------------------------------------------------------------------

@dataclass
class H1BaselineResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["protocol", "objects of interest passively identified"],
            self.rows(),
            title="E8e — HTTP/1.1 vs HTTP/2 under the passive estimator",
        )


@dataclass(frozen=True)
class _H2PassiveTrial:
    """One clean (no adversary) HTTP/2 load scored passively."""

    seed: int

    def __call__(self, trial: int) -> Tuple[int, int]:
        workload = VolunteerWorkload(seed=self.seed)
        site = workload.session(trial)
        summary = summarize_trial(trial, workload, TrialConfig())
        found = 0
        total = 0
        for object_id in site.objects_of_interest:
            total += 1
            verdict = summary.analysis.single_object.get(object_id)
            if verdict is not None and verdict.success:
                found += 1
        return found, total


@dataclass(frozen=True)
class _H1PassiveTrial:
    """Same site over the sequential HTTP/1.1 stack, scored passively."""

    seed: int

    def __call__(self, trial: int) -> Tuple[int, int]:
        workload = VolunteerWorkload(seed=self.seed)
        site = workload.session(trial)
        rng = workload.trial_rng(trial)
        topology = build_adversary_path(seed=rng.master_seed)
        sim = topology.sim
        H1Server(
            sim, topology.server, 443, site.website.router,
            trace=topology.trace, rng=rng,
        )
        client = H1Client(
            sim, topology.client, topology.server.endpoint(443),
            trace=topology.trace, authority="www.isidewith.com",
        )
        def on_ready(site=site, client=client):
            for request in site.schedule:
                client.get(request.obj.path)
        client.on_ready = on_ready
        client.connect()
        sim.run_until(60.0)

        monitor = TrafficMonitor(topology.middlebox.capture)
        from repro.netsim.capture import Direction
        request_times = [
            record.time
            for record in topology.middlebox.capture
            if record.direction is Direction.CLIENT_TO_SERVER
            and record.is_application_stream
            and record.payload_bytes > 200  # H1 GETs are ~370 B
        ]
        estimates = SizeEstimator(delimiter_gap=0.040).estimate(
            monitor.response_packets(), request_times=request_times
        )
        predictor = SizePredictor(site.size_map(), tolerance_abs=700)
        found = 0
        total = 0
        for object_id in site.objects_of_interest:
            total += 1
            if predictor.find_object(estimates, object_id) is not None:
                found += 1
        return found, total


def run_h1_baseline(trials: int = 10, seed: int = 7,
                    workers: Optional[int] = None) -> H1BaselineResult:
    """Passive (no adversary) identification rate: HTTP/1.1 vs HTTP/2."""
    executor = TrialExecutor(workers=workers)
    result = H1BaselineResult()

    # HTTP/2 side: clean baseline trials.
    h2_counts = executor.map_trials(trials, _H2PassiveTrial(seed))
    h2_found = sum(found for found, _ in h2_counts)
    h2_total = sum(total for _, total in h2_counts)

    # HTTP/1.1 side: same sites over the sequential stack.
    h1_counts = executor.map_trials(trials, _H1PassiveTrial(seed))
    h1_found = sum(found for found, _ in h1_counts)
    h1_total = sum(total for _, total in h1_counts)

    result.rows_data.append(
        ["HTTP/2 (multiplexed)", f"{percentage(h2_found, h2_total):.0f}%"]
    )
    result.rows_data.append(
        ["HTTP/1.1 (sequential)", f"{percentage(h1_found, h1_total):.0f}%"]
    )
    return result


# ---------------------------------------------------------------------------
# (f) server-push defense (§VII)
# ---------------------------------------------------------------------------

@dataclass
class PushDefenseResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["deployment", "order recovered (vs true preference)",
             "pages completed"],
            self.rows(),
            title="E8f — §VII server-push defense vs the attack",
        )


@dataclass(frozen=True)
class _PushDefenseTrial:
    """One attacked load, optionally against a push-defended server."""

    seed: int
    defended: bool

    def __call__(self, trial: int) -> TrialSummary:
        from repro.core.defenses import ServerPushDefense

        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(adversary=AdversaryConfig())
        if self.defended:
            site = workload.session(trial)
            config.server = ServerConfig(
                push_map=ServerPushDefense().push_map(site)
            )
        return summarize_trial(trial, workload, config)


def run_push_defense(trials: int = 10, seed: int = 7,
                     workers: Optional[int] = None) -> PushDefenseResult:
    """Full attack against a vanilla vs a push-defended server.

    The defended server pushes all 8 emblems in a canonical order on
    the HTML's stream; the wire order is user-independent, so the
    recovered sequence decorrelates from the true preference.
    """
    workload = VolunteerWorkload(seed=seed)
    executor = TrialExecutor(workers=workers)
    result = PushDefenseResult()
    for defended in (False, True):
        truth_positions = 0
        completed = 0
        summaries = executor.map_trials(
            trials, _PushDefenseTrial(seed, defended)
        )
        for trial, summary in enumerate(summaries):
            if summary.completed:
                completed += 1
            analysis = summary.analysis
            predicted = [
                object_id.replace("emblem-", "")
                for object_id in analysis.sequence_prediction
            ]
            for position, party in enumerate(workload.party_order_for(trial)):
                if position < len(predicted) and predicted[position] == party:
                    truth_positions += 1
        denominator = trials * 8
        result.rows_data.append([
            "push-defended" if defended else "vanilla",
            f"{percentage(truth_positions, denominator):.0f}%",
            f"{completed}/{trials}",
        ])
    return result


# ---------------------------------------------------------------------------
# (g) success accounting (DESIGN.md §5)
# ---------------------------------------------------------------------------

@dataclass
class AccountingResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["success criterion", "HTML success"],
            self.rows(),
            title="E8g — success accounting under jitter-only attack",
        )


@dataclass(frozen=True)
class _AccountingTrial:
    """One jitter-only attacked load for the success-accounting study."""

    seed: int
    spacing: float

    def __call__(self, trial: int) -> TrialSummary:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(controller_setup=SpacingSetup(self.spacing))
        return summarize_trial(trial, workload, config)


def run_success_accounting(
    trials: int = 15, seed: int = 7, spacing: float = 0.050,
    workers: Optional[int] = None,
) -> AccountingResult:
    """Jitter-only attack scored three ways.

    Figure 5's discussion hinges on the difference between counting a
    success when *any* serving (including retransmitted duplicates)
    of the object went out clean versus requiring the *original*
    serving to be clean.  Ground truth separates the criteria exactly.
    """
    any_serving = 0
    original_only = 0
    identified_only = 0
    summaries = TrialExecutor(workers=workers).map_trials(
        trials, _AccountingTrial(seed, spacing)
    )
    for summary in summaries:
        verdict = summary.analysis.single_object[HTML_OBJECT_ID]
        if verdict.identified:
            identified_only += 1
            if verdict.degree_zero:
                any_serving += 1
            if verdict.degree_zero_original:
                original_only += 1
    result = AccountingResult()
    result.rows_data.append([
        "identified (size match alone)",
        f"{percentage(identified_only, trials):.0f}%",
    ])
    result.rows_data.append([
        "identified + any serving clean (paper's count)",
        f"{percentage(any_serving, trials):.0f}%",
    ])
    result.rows_data.append([
        "identified + original serving clean (strict)",
        f"{percentage(original_only, trials):.0f}%",
    ])
    return result


# ---------------------------------------------------------------------------
# (h) TCP stack variants (SACK, congestion control)
# ---------------------------------------------------------------------------

@dataclass
class TcpVariantResult:
    rows_data: List[List[str]] = field(default_factory=list)

    def rows(self) -> List[List[str]]:
        return self.rows_data

    def render(self) -> str:
        return format_table(
            ["TCP variant", "HTML attack success", "server retransmitted "
             "segments", "mean load time (s)"],
            self.rows(),
            title="E8h — attack robustness across TCP stack variants",
        )


@dataclass(frozen=True)
class _TcpVariantTrial:
    """One fully attacked load over a specific transport stack."""

    seed: int
    algorithm: str
    sack: bool

    def __call__(self, trial: int) -> TrialSummary:
        workload = VolunteerWorkload(seed=self.seed)
        config = TrialConfig(
            adversary=AdversaryConfig(),
            tcp=TCPConfig(congestion_control=self.algorithm, sack=self.sack),
        )
        return summarize_trial(trial, workload, config)


def run_tcp_variants(trials: int = 8, seed: int = 7,
                     workers: Optional[int] = None) -> TcpVariantResult:
    """The full attack under four transport stacks.

    The attack manipulates generic TCP mechanisms (timeouts, loss
    recovery, windows); its success should not hinge on stack details
    — and the drop-phase recovery cost *should* differ (SACK patches
    holes without resending everything).
    """
    executor = TrialExecutor(workers=workers)
    result = TcpVariantResult()
    variants = [
        ("reno", False),
        ("reno + sack", True),
        ("cubic", False),
        ("cubic + sack", True),
    ]
    for label, sack in variants:
        algorithm = "cubic" if label.startswith("cubic") else "reno"
        successes = 0
        retransmitted = 0
        total_time = 0.0
        summaries = executor.map_trials(
            trials, _TcpVariantTrial(seed, algorithm, sack)
        )
        for summary in summaries:
            if summary.analysis.single_object[HTML_OBJECT_ID].success:
                successes += 1
            retransmitted += summary.server_retransmitted_segments
            total_time += summary.duration
        result.rows_data.append([
            label,
            f"{percentage(successes, trials):.0f}%",
            str(retransmitted),
            f"{total_time / trials:.1f}",
        ])
    return result
