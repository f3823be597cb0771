"""Websites and page-load schedules.

A :class:`Website` is a set of :class:`~repro.web.objects.WebObject`
resources plus a router for the HTTP/2 server.  A :class:`LoadSchedule`
is the browser-side view: the ordered list of requests a page load
issues, each with its gap from the previous request — the quantity
Table II of the paper reports and the adversary's jitter manipulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.h2.server import ResourceSpec
from repro.web.objects import WebObject


@dataclass(frozen=True)
class ScheduledRequest:
    """One request in a page load.

    Attributes:
        gap: seconds after the *previous* request (the first request's
            gap is measured from load start).
        obj: the object requested.
        priority_weight: optional RFC 7540 weight the browser attaches.
        script_triggered: the request is issued by script execution
            (the emblem images in the isidewith model) rather than by
            document parsing; on a reload after a stream reset these
            fire only once the scripts are back and re-run.
    """

    gap: float
    obj: WebObject
    priority_weight: Optional[int] = None
    script_triggered: bool = False

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("request gaps must be non-negative")


class LoadSchedule:
    """The ordered request sequence of one page load."""

    def __init__(self, requests: Sequence[ScheduledRequest]) -> None:
        if not requests:
            raise ValueError("a load schedule needs at least one request")
        self.requests: List[ScheduledRequest] = list(requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __getitem__(self, index: int) -> ScheduledRequest:
        return self.requests[index]

    def index_of(self, object_id: str) -> int:
        """0-based position of an object in the schedule.

        Raises:
            KeyError: when the object is not scheduled.
        """
        for index, request in enumerate(self.requests):
            if request.obj.object_id == object_id:
                return index
        raise KeyError(object_id)

    def request_times(self) -> List[float]:
        """Nominal issue times (cumulative gaps) of each request."""
        times = []
        elapsed = 0.0
        for request in self.requests:
            elapsed += request.gap
            times.append(elapsed)
        return times


class Website:
    """A set of servable objects with a router."""

    def __init__(self, name: str, objects: Iterable[WebObject]) -> None:
        self.name = name
        self.objects: Dict[str, WebObject] = {}
        for obj in objects:
            if obj.path in self.objects:
                raise ValueError(f"duplicate path {obj.path!r}")
            self.objects[obj.path] = obj

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, path: str) -> bool:
        return path in self.objects

    def object_by_id(self, object_id: str) -> WebObject:
        for obj in self.objects.values():
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)

    def router(self, path: str) -> Optional[ResourceSpec]:
        """Server router callable (None → 404)."""
        obj = self.objects.get(path)
        return obj.resource_spec() if obj is not None else None

    def size_map(self) -> Dict[str, int]:
        """object_id → body size; the adversary's pre-compiled map."""
        return {obj.object_id: obj.size for obj in self.objects.values()}

    def __repr__(self) -> str:
        return f"Website({self.name!r}, {len(self.objects)} objects)"


@dataclass
class Page:
    """What one page load needs: content, request order and host name.

    Attributes:
        website: the objects the server serves.
        schedule: the browser's request sequence for this load.
        authority: the site's host name.  Every request carries it as
            ``:authority``, so it is on the wire (HPACK-coded) and each
            kind of page keeps its own.
    """

    website: Website
    schedule: LoadSchedule
    authority: str
