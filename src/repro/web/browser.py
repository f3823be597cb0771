"""A Firefox-like page-load driver.

The browser walks a :class:`~repro.web.site.LoadSchedule`, issuing each
GET after its scheduled gap, and implements the client reaction the
paper's targeted-drop phase relies on (§IV-D): when response data stops
flowing for longer than ``reset_timeout`` while requests are
outstanding, the browser sends **RST_STREAM for every unfinished
stream** and then re-requests the objects it still needs, highest
priority (earliest scheduled) first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.h2.client import H2Client, ResponseHandle
from repro.h2.errors import H2ErrorCode
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog
from repro.web.site import LoadSchedule, ScheduledRequest

#: Trace field names, one tuple per row shape.
_REQUEST_KEYS = ("path", "index")
_PATH_KEYS = ("path",)
_RESET_KEYS = ("streams",)

@dataclass
class BrowserConfig:
    """Browser behaviour knobs.

    Attributes:
        reset_timeout: stall time (no DATA on any active stream) after
            which the browser resets all active streams.  The paper's
            client reset after ~6 s of adversarial drops; Firefox-class
            stall detection sits in the low seconds.
        reset_backoff: multiplier applied to the stall timeout after
            each reset — a client on a lossy channel waits progressively
            longer (mirroring its TCP's growing retransmit timeouts,
            §IV-D) instead of spamming resets.
        reretry_delay: pause between sending the resets and re-issuing
            the GETs for missing objects.
        rerequest_gap: gap between re-issued GETs within one wave.
        script_rerun_delay: pause between the render-critical wave
            completing and the image wave starting — the scripts must
            re-execute before they re-request the emblem images, which
            is why the paper's image burst reappears intact (and in
            preference order) after the stream reset.
        check_interval: stall-detector polling period.
        max_resets: give up (broken connection) after this many resets.
    """

    reset_timeout: float = 6.0
    reset_backoff: float = 2.0
    reretry_delay: float = 0.050
    rerequest_gap: float = 0.010
    script_rerun_delay: float = 1.2
    check_interval: float = 0.250
    max_resets: int = 12


class Browser:
    """Drives one page load over one HTTP/2 client connection."""

    def __init__(
        self,
        sim: Simulator,
        client: H2Client,
        schedule: LoadSchedule,
        config: Optional[BrowserConfig] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.schedule = schedule
        self.config = config or BrowserConfig()
        self._trace = trace
        self._next_index = 0
        self._started = False
        self.resets_sent = 0
        self._current_reset_timeout = self.config.reset_timeout
        self._pending_image_wave: List[ScheduledRequest] = []
        self.broken = False
        self.handles_by_object: Dict[str, List[ResponseHandle]] = {}
        #: Scheduled objects with a completed handle; the page is complete
        #: when it holds all ``_object_count`` of them.
        self._completed_objects: Set[str] = set()
        self._object_count = len({request.obj.object_id for request in schedule})
        self._request_paths: Dict[int, ScheduledRequest] = {}
        self.on_page_complete: Optional[Callable[[], None]] = None
        self._completed_notified = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Connect and begin the page load."""
        if self._started:
            raise RuntimeError("browser already started")
        self._started = True
        self.client.on_ready = self._begin_schedule
        self.client.connect()

    def _begin_schedule(self) -> None:
        self._schedule_next_request()
        self.sim.schedule(self.config.check_interval, self._stall_check)

    def _schedule_next_request(self) -> None:
        if self._next_index >= len(self.schedule):
            return
        request = self.schedule[self._next_index]
        self.sim.schedule(request.gap, lambda: self._issue(request))

    def _issue(self, request: ScheduledRequest) -> None:
        if self.broken:
            return
        pushed = self._adopt_pushed(request)
        if pushed is not None:
            # The server already pushed this object; no request needed.
            self._next_index += 1
            self._schedule_next_request()
            return
        handle = self.client.get(
            request.obj.path, priority_weight=request.priority_weight
        )
        self._track(request.obj.object_id, handle)
        self._record(
            "browser.request", _REQUEST_KEYS, (request.obj.path, self._next_index)
        )
        self._next_index += 1
        self._schedule_next_request()

    def _adopt_pushed(self, request: ScheduledRequest):
        """Adopt a server-pushed response for this object, if one exists.

        Returns the adopted handle, or None when the object must be
        requested normally.
        """
        for handle in self.client.handles.values():
            if handle.path != request.obj.path or not handle.pushed:
                continue
            if handle.reset:
                continue
            object_id = request.obj.object_id
            if handle not in self.handles_by_object.setdefault(object_id, []):
                self._track(object_id, handle)
                if handle.complete:
                    self._on_object_complete(object_id, handle)
            self._record("browser.push_adopted", _PATH_KEYS, (request.obj.path,))
            return handle
        return None

    # ------------------------------------------------------------------
    # Completion tracking
    # ------------------------------------------------------------------

    def _track(self, object_id: str, handle: ResponseHandle) -> None:
        """Count ``handle``'s completion toward scheduled ``object_id``."""
        self.handles_by_object.setdefault(object_id, []).append(handle)
        handle.on_complete = partial(self._on_object_complete, object_id)

    def _on_object_complete(self, object_id: str, handle: ResponseHandle) -> None:
        self._completed_objects.add(object_id)
        if self.page_complete and not self._completed_notified:
            self._completed_notified = True
            self._record("browser.page_complete")
            if self.on_page_complete:
                self.on_page_complete()

    @property
    def page_complete(self) -> bool:
        """True when every scheduled object has completed at least once."""
        return (
            self._next_index >= len(self.schedule)
            and len(self._completed_objects) == self._object_count
        )

    @property
    def missing_objects(self) -> List[ScheduledRequest]:
        """Scheduled requests whose object has not completed yet."""
        return [
            request for request in self.schedule
            if request.obj.object_id not in self._completed_objects
        ]

    # ------------------------------------------------------------------
    # Stall detection and reset-and-retry
    # ------------------------------------------------------------------

    def _stall_check(self) -> None:
        if self.broken or self.page_complete:
            return
        active = self.client.active_handles
        if active:
            # A single starved stream is enough: a request that has
            # received nothing for the whole timeout means the channel
            # is badly lossy, and the client resets all ongoing streams
            # (the paper's §IV-D client reaction).
            starved = min(
                (h.last_data_at or h.requested_at) for h in active
            )
            if self.sim.now - starved >= self._current_reset_timeout:
                self._reset_and_retry()
        self.sim.schedule(self.config.check_interval, self._stall_check)

    def _reset_and_retry(self) -> None:
        if self.resets_sent >= self.config.max_resets:
            self.broken = True
            self._record("browser.broken")
            return
        self.resets_sent += 1
        self._current_reset_timeout *= self.config.reset_backoff
        reset_ids = self.client.reset_all_active(H2ErrorCode.CANCEL)
        self._record("browser.reset", _RESET_KEYS, (len(reset_ids),))
        self.sim.schedule(self.config.reretry_delay, self._rerequest_missing)

    def _rerequest_missing(self) -> None:
        """Re-issue GETs for missing objects in waves.

        Wave 1: everything document-triggered (HTML, stylesheets,
        scripts, fonts, parsed images) in schedule order.  Wave 2,
        once wave 1 has landed and the scripts have re-executed: the
        script-triggered requests — the emblem images — which therefore
        reappear as their own back-to-back run at the very tail of the
        reload, exactly as the paper observes.
        """
        if self.broken:
            return
        document_wave = [
            request for request in self.missing_objects
            if not request.script_triggered
        ]
        script_wave = [
            request for request in self.missing_objects
            if request.script_triggered
        ]
        for position, request in enumerate(document_wave):
            self.sim.schedule(
                position * self.config.rerequest_gap,
                lambda req=request: self._reissue(req),
            )
        if script_wave:
            self._pending_image_wave = script_wave
            self.sim.schedule(self.config.check_interval, self._maybe_start_image_wave)

    def _maybe_start_image_wave(self) -> None:
        if self.broken or not self._pending_image_wave:
            return
        document_missing = [
            request for request in self.missing_objects
            if not request.script_triggered
        ]
        if document_missing:
            # Scripts not back yet; check again shortly.  (A stalled
            # document wave is handled by the stall detector.)
            self.sim.schedule(
                self.config.check_interval, self._maybe_start_image_wave
            )
            return
        script_wave, self._pending_image_wave = self._pending_image_wave, []
        for position, request in enumerate(script_wave):
            self.sim.schedule(
                self.config.script_rerun_delay
                + position * self.config.rerequest_gap,
                lambda req=request: self._reissue(req),
            )

    def _reissue(self, request: ScheduledRequest) -> None:
        if self.broken:
            return
        if self._adopt_pushed(request) is not None:
            # The reloaded page was pushed this object again; no
            # request needed (and none leaks onto the wire).
            return
        object_id = request.obj.object_id
        if object_id in self._completed_objects or any(
            not h.finished for h in self.handles_by_object.get(object_id, [])
        ):
            return
        handle = self.client.get(
            request.obj.path, priority_weight=request.priority_weight
        )
        self._track(object_id, handle)
        self._record("browser.rerequest", _PATH_KEYS, (request.obj.path,))

    def _record(self, category: str, keys: tuple = (), values: tuple = ()) -> None:
        if self._trace is not None:
            self._trace.record(self.sim.now, category, keys, values)

    def __repr__(self) -> str:
        return (
            f"Browser({self._next_index}/{len(self.schedule)} issued, "
            f"resets={self.resets_sent})"
        )
