"""The attack state machine (paper §V).

Phases, exactly as the paper runs them against isidewith.com:

1. **Arm** — on connection detection, install the GET-spacing filter
   (50 ms) and start counting GET requests on the client→server path.
2. **Trigger** — when the N-th GET passes (N=6, the result HTML),
   throttle the bandwidth to 800 Mbps and start dropping 80 % of
   server→client application packets.
3. **Reset window** — keep dropping for 6 seconds, forcing the client
   to RST_STREAM everything and re-request with a backed-off TCP.
4. **Escalate** — once the drops stop, raise the GET spacing to 80 ms
   so the 8 re-requested emblem images are served one at a time.

The phases and parameters are configurable so the single-parameter
experiments of §IV (Table I, Figure 5, the §IV-D drop study) can run
individual pieces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.controller import NetworkController
from repro.simkernel.trace import TraceLog
from repro.simkernel.units import MBPS

#: Trace field names, one tuple per row shape; ``_record`` puts
#: ``phase`` in front of them.
_JITTER_KEYS = ("jitter",)
_TRIGGERED_KEYS = ("get_index",)
_RETRY_SCHEDULED_KEYS = ("attempt", "backoff")
_RETRY_KEYS = ("attempt",)
_ABORTED_KEYS = ("retries",)
_PHASE_KEYS = ("phase",)


class AttackPhase(enum.Enum):
    IDLE = "idle"
    SPACING = "spacing"
    DROPPING = "dropping"
    ESCALATED = "escalated"
    #: The drop-phase serialization attempt failed and the retry budget
    #: is exhausted — the attack gives up instead of reporting garbage
    #: estimates (graceful degradation under network faults).
    ABORTED = "aborted"


@dataclass
class AdversaryConfig:
    """Attack parameters (defaults are the paper's §V values).

    ``initial_jitter`` / ``escalated_jitter`` are *mean* added delays
    (netem semantics — see
    :class:`~repro.core.controller.RandomJitterFilter`).  Setting
    ``ideal_spacing`` True swaps in the idealized no-reordering spacing
    filter instead, for the ablation study.
    """

    initial_jitter: float = 0.050
    escalated_jitter: float = 0.080
    bandwidth_limit: Optional[float] = 800 * MBPS
    drop_rate: float = 0.80
    drop_duration: float = 6.0
    trigger_get_index: int = 6
    enable_drops: bool = True
    enable_bandwidth_limit: bool = True
    enable_escalation: bool = True
    #: "spacing" = the calculated per-request holds of §IV-B with the
    #: actuator noise of a real tc/netem gateway; "ideal" = the same
    #: with a perfect actuator (ablation); "random" = plain netem
    #: random jitter (ablation — it clumps instead of spacing).
    jitter_mode: str = "spacing"
    #: Actuator imprecision of the attack's holds (fraction of each
    #: hold).  Calibrated so the sequence-mode accuracy reproduces
    #: Table II's declining tail (I5..I8 ≈ 60-80 %).
    spacing_noise: float = 0.4
    #: When set, the drop phase triggers on this classifier's live
    #: verdict (the §VII "ML triggering" extension) instead of the
    #: fixed ``trigger_get_index``.
    trigger_classifier: Optional[object] = None
    #: Adaptive recovery (graceful degradation under network faults).
    #: After each drop window the adversary checks, through its own
    #: :class:`~repro.core.monitor.TrafficMonitor` view of the gateway
    #: capture, whether the client visibly reacted — new (non-
    #: retransmitted) GETs observed after the window opened, the wire
    #: signature of RST_STREAM-and-re-request.  If nothing new was seen
    #: (the window coincided with an outage or a total stall) the drop
    #: phase is re-triggered with exponential backoff, up to this many
    #: retries; exhausting the budget moves the attack to ``ABORTED``
    #: instead of escalating over garbage.  0 disables detection and
    #: retries entirely — the pre-fault-tolerance behaviour.
    max_drop_retries: int = 0
    #: Initial pause before the first re-triggered drop window.
    retry_backoff: float = 0.5
    #: Multiplier applied to the backoff after every retry.
    retry_backoff_factor: float = 2.0
    #: Minimum new GETs observed after the window opened for the
    #: attempt to count as a success.
    retry_success_min_gets: int = 1

    def __post_init__(self) -> None:
        if self.initial_jitter < 0 or self.escalated_jitter < 0:
            raise ValueError("jitter values must be non-negative")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValueError("drop rate must be in [0, 1]")
        if self.trigger_get_index < 1:
            raise ValueError("trigger GET index is 1-based")
        if self.jitter_mode not in ("spacing", "ideal", "random"):
            raise ValueError(f"unknown jitter mode {self.jitter_mode!r}")
        if self.max_drop_retries < 0:
            raise ValueError("max_drop_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_success_min_gets < 1:
            raise ValueError("retry_success_min_gets must be >= 1")


class Adversary:
    """Drives the controller through the attack phases."""

    def __init__(
        self,
        controller: NetworkController,
        config: Optional[AdversaryConfig] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.controller = controller
        self.config = config or AdversaryConfig()
        self._trace = trace
        self.phase = AttackPhase.IDLE
        self.trigger_time: Optional[float] = None
        self.escalation_time: Optional[float] = None
        #: Drop-window retries spent so far (adaptive recovery).
        self.retries_used = 0
        #: When the current (or last) drop window opened.
        self.attempt_started: Optional[float] = None
        self.abort_time: Optional[float] = None

    @property
    def sim(self):
        return self.controller.sim

    @property
    def aborted(self) -> bool:
        return self.phase is AttackPhase.ABORTED

    def arm(self) -> None:
        """Phase 1: jitter + GET counting; register the trigger."""
        if self.phase is not AttackPhase.IDLE:
            raise RuntimeError(f"arm() in phase {self.phase}")
        self._apply_jitter(self.config.initial_jitter)
        if self.config.trigger_classifier is not None:
            from repro.core.trigger import ClassifierTrigger

            self.classifier_trigger = ClassifierTrigger(
                self.config.trigger_classifier, self._on_trigger
            )
            self.controller.get_counter.on_get = self.classifier_trigger.observe
        else:
            self.classifier_trigger = None
            self.controller.on_nth_get(
                self.config.trigger_get_index, self._on_trigger
            )
        self.phase = AttackPhase.SPACING
        self._record("attack.armed", _JITTER_KEYS, (self.config.initial_jitter,))

    def _on_trigger(self, now: float) -> None:
        """Phase 2: the N-th GET just passed — throttle and drop."""
        if self.phase is not AttackPhase.SPACING:
            return
        self.trigger_time = now
        if self.config.enable_bandwidth_limit:
            self.controller.limit_bandwidth(self.config.bandwidth_limit)
        if self.config.enable_drops:
            self.controller.install_drops(self.config.drop_rate)
            self.controller.start_drops(self.config.drop_duration)
            self.phase = AttackPhase.DROPPING
            self.attempt_started = now
            self.sim.schedule(self.config.drop_duration, self._on_drops_done)
        else:
            self._escalate()
        self._record(
            "attack.triggered", _TRIGGERED_KEYS, (self.config.trigger_get_index,)
        )

    def _on_drops_done(self) -> None:
        """Phase 3 → 4: drop window over; escalate, retry, or abort."""
        if self.phase is not AttackPhase.DROPPING:
            return
        if self.config.max_drop_retries == 0:
            self._escalate()
            return
        if self._serialization_succeeded():
            self._escalate()
            return
        if self.retries_used >= self.config.max_drop_retries:
            self._abort()
            return
        backoff = self.config.retry_backoff * (
            self.config.retry_backoff_factor ** self.retries_used
        )
        self.retries_used += 1
        self._record(
            "attack.retry_scheduled",
            _RETRY_SCHEDULED_KEYS,
            (self.retries_used, backoff),
        )
        self.sim.schedule(backoff, self._retry_drops)

    def _serialization_succeeded(self) -> bool:
        """Did the drop window visibly elicit the client's reaction?

        The adversary owns the gateway, so it can replay its own capture
        through a :class:`~repro.core.monitor.TrafficMonitor`.  A
        successful window shows *new* (non-retransmitted) GET requests
        after the window opened — the re-requests that follow the forced
        RST_STREAMs, or at minimum continued request traffic to
        serialize.  A window that coincided with an outage, a link flap
        or a client stalled into deep RTO backoff shows nothing new, and
        dropping was wasted.
        """
        if self.attempt_started is None:
            return False
        from repro.core.monitor import TrafficMonitor

        monitor = TrafficMonitor(self.controller.middlebox.capture)
        fresh = [
            observation
            for observation in monitor.get_requests()
            if observation.time > self.attempt_started
        ]
        return len(fresh) >= self.config.retry_success_min_gets

    def _retry_drops(self) -> None:
        """Re-open the drop window for another serialization attempt."""
        if self.phase is not AttackPhase.DROPPING:
            return
        now = self.sim.now
        self.attempt_started = now
        self.controller.start_drops(self.config.drop_duration)
        self._record("attack.retry", _RETRY_KEYS, (self.retries_used,))
        self.sim.schedule(self.config.drop_duration, self._on_drops_done)

    def _abort(self) -> None:
        """Give up: stop actuating and report no estimate at all."""
        self.phase = AttackPhase.ABORTED
        self.abort_time = self.sim.now
        if self.controller.drop_filter is not None:
            self.controller.drop_filter.deactivate()
        self._record("attack.aborted", _ABORTED_KEYS, (self.retries_used,))

    def _escalate(self) -> None:
        if self.config.enable_escalation:
            self._apply_jitter(self.config.escalated_jitter)
            self.escalation_time = self.sim.now
            self._record(
                "attack.escalated", _JITTER_KEYS, (self.config.escalated_jitter,)
            )
        self.phase = AttackPhase.ESCALATED

    def _apply_jitter(self, amount: float) -> None:
        if self.config.jitter_mode == "random":
            self.controller.install_jitter(amount)
        elif self.config.jitter_mode == "ideal":
            self.controller.install_spacing(amount, noise_fraction=0.0)
        else:
            self.controller.install_spacing(
                amount, noise_fraction=self.config.spacing_noise
            )

    def _record(self, category: str, keys: tuple, values: tuple) -> None:
        if self._trace is not None:
            self._trace.record(
                self.sim.now,
                category,
                _PHASE_KEYS + keys,
                (self.phase.value,) + values,
            )

    def __repr__(self) -> str:
        return f"Adversary({self.phase.value})"
