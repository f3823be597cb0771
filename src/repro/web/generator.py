"""Random website generation — beyond isidewith.com.

    "Our adversary is built on the general principles stated in the
    paper and can be extended to other real-world websites/scenarios."
    (paper §VII)

Generates synthetic websites with realistic object populations so the
attack can be evaluated against arbitrary page structures, and so the
§II preconditions — the target object's size must be *unique* within
the site — can be stress-tested deliberately (the ``size_collision``
knob plants confusers near the target's size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.simkernel.randomstream import RandomStreams
from repro.web.objects import WebObject
from repro.web.site import LoadSchedule, Page, ScheduledRequest, Website
from repro.web.workload import PageSpec

#: Content-type mix of a typical page (type, extension, size range).
_OBJECT_CLASSES: Tuple[Tuple[str, str, Tuple[int, int]], ...] = (
    ("text/css", "css", (2_000, 60_000)),
    ("application/javascript", "js", (3_000, 120_000)),
    ("image/png", "png", (1_000, 80_000)),
    ("image/jpeg", "jpg", (10_000, 150_000)),
    ("font/woff2", "woff2", (15_000, 45_000)),
)

#: Server think-time for generated static objects.
_STATIC_THINK = (0.0005, 0.004)


@dataclass
class GeneratedSite(Page):
    """A generated page plus the id of its target object."""

    target_object_id: str

    @property
    def target_size(self) -> int:
        return self.website.object_by_id(self.target_object_id).size


def generate_site(
    rng: RandomStreams,
    object_count: int = 30,
    target_size: int = 9_500,
    size_collision: Optional[int] = None,
    burst_gap: float = 0.0008,
) -> GeneratedSite:
    """Generate a site whose page embeds ``object_count`` objects.

    Args:
        rng: the random substream tree for this site.
        object_count: embedded objects besides the target page.
        target_size: the target (dynamic HTML) object's size.
        size_collision: when set, this many *confuser* objects are
            planted within ±2 % of the target's size — violating the
            paper's §II uniqueness precondition by construction.
        burst_gap: base inter-request gap within the page's bursts.

    Returns:
        The generated site; the target is requested at a position
        drawn uniformly from the middle of the schedule.
    """
    target = WebObject(
        "/page/result.html",
        target_size,
        "text/html",
        object_id="target",
        think_time_range=(0.060, 0.320),
    )
    objects: List[WebObject] = []
    used_sizes = {target_size}
    stream = rng.stream("sitegen")
    for index in range(object_count):
        content_type, extension, (low, high) = _OBJECT_CLASSES[
            index % len(_OBJECT_CLASSES)
        ]
        # Keep generated sizes comfortably away from the target and from
        # one another, unless collisions are requested.  The separation
        # requirement relaxes as attempts accumulate so dense sites (the
        # exclusion zones can exceed the size range) always terminate.
        separation = 0.06
        size = stream.randint(low, high)
        for attempt in range(200):
            size = stream.randint(low, high)
            if all(abs(size - other) > max(600 * separation / 0.06,
                                           other * separation)
                   for other in used_sizes):
                break
            if attempt % 25 == 24:
                separation /= 2
        used_sizes.add(size)
        objects.append(
            WebObject(
                f"/assets/obj{index:03d}.{extension}",
                size,
                content_type,
                think_time_range=_STATIC_THINK,
            )
        )
    for collision in range(size_collision or 0):
        offset = stream.randint(-int(target_size * 0.02),
                                int(target_size * 0.02))
        objects.append(
            WebObject(
                f"/assets/confuser{collision}.bin",
                max(1, target_size + offset),
                "application/octet-stream",
                think_time_range=_STATIC_THINK,
            )
        )

    website = Website("generated", [target] + objects)

    # Schedule: a pre-flow, then the target, then the embedded burst.
    shuffled = rng.shuffled("schedule-order", objects)
    pre_count = min(4, len(shuffled) // 4)
    requests: List[ScheduledRequest] = []
    for obj in shuffled[:pre_count]:
        requests.append(
            ScheduledRequest(rng.uniform("pre-gap", 0.02, 0.3), obj)
        )
    requests.append(
        ScheduledRequest(rng.uniform("target-gap", 0.3, 0.6), target)
    )
    for obj in shuffled[pre_count:]:
        gap = burst_gap if rng.stream("burstiness").random() < 0.8 else 0.02
        requests.append(ScheduledRequest(gap, obj))
    return GeneratedSite(
        website=website,
        schedule=LoadSchedule(requests),
        authority="generated.example",
        target_object_id="target",
    )


def generate_site_from_spec(
    rng: RandomStreams,
    spec: PageSpec,
    burst_gap: float = 0.0008,
) -> GeneratedSite:
    """Materialise a population :class:`~repro.web.workload.PageSpec`.

    The campaign engine's full-simulation mode turns the plain spec
    (body sizes only) into a servable :class:`Website` with the same
    schedule shape as :func:`generate_site`: a short pre-flow, the
    dynamic target, then the embedded burst.  Object sizes come from
    the spec verbatim — the spec *is* the ground truth — while content
    types, ordering and gaps are drawn from ``rng`` exactly like the
    generated-site path.
    """
    target = WebObject(
        "/page/result.html",
        spec.target_size,
        "text/html",
        object_id="target",
        think_time_range=(0.060, 0.320),
    )
    objects: List[WebObject] = []
    for index, size in enumerate(spec.object_sizes):
        content_type, extension, _ = _OBJECT_CLASSES[
            index % len(_OBJECT_CLASSES)
        ]
        objects.append(
            WebObject(
                f"/assets/obj{index:03d}.{extension}",
                size,
                content_type,
                think_time_range=_STATIC_THINK,
            )
        )
    website = Website(f"population-{spec.session}", [target] + objects)
    shuffled = rng.shuffled("schedule-order", objects)
    pre_count = min(4, len(shuffled) // 4)
    requests: List[ScheduledRequest] = []
    for obj in shuffled[:pre_count]:
        requests.append(
            ScheduledRequest(rng.uniform("pre-gap", 0.02, 0.3), obj)
        )
    requests.append(
        ScheduledRequest(rng.uniform("target-gap", 0.3, 0.6), target)
    )
    for obj in shuffled[pre_count:]:
        gap = burst_gap if rng.stream("burstiness").random() < 0.8 else 0.02
        requests.append(ScheduledRequest(gap, obj))
    return GeneratedSite(
        website=website,
        schedule=LoadSchedule(requests),
        authority="population.example",
        target_object_id="target",
    )
