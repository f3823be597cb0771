"""The isidewith.com replica — the paper's target website.

The paper attacks the '2020 Presidential Quiz' result page:

* the result **HTML** (≈9500 bytes, dynamically generated — the 6th
  object the client downloads and the first object of interest),
* **47 embedded objects** (JavaScript, stylesheets, fonts, images),
  among them the **8 political-party emblem images** (5–16 KB, each a
  distinct size) that a JavaScript requests back-to-back **in the
  user's preference order** — the sequence the adversary wants.

Inter-request gaps follow Table II of the paper: 500 ms before the
HTML, 160 ms to the next request, 780 ms before the first image, then
sub-millisecond gaps between the images (0.4, 2, 0.3, 0.1, 0.3, 2,
0.5 ms) and 26 ms to the request after the last image.

The adversary's prior knowledge — the image-size → party map and the
position of each object of interest in the request sequence — comes
from :meth:`IsideWithSite.size_map` / :meth:`IsideWithSite.schedule`,
matching the paper's assumption 5 (§III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.web.objects import WebObject
from repro.web.site import LoadSchedule, Page, ScheduledRequest, Website

#: The 8 political parties of the 2020 survey.
PARTIES: Tuple[str, ...] = (
    "democratic",
    "republican",
    "libertarian",
    "green",
    "constitution",
    "transhumanist",
    "socialist",
    "american-solidarity",
)

#: Emblem image sizes in bytes: 5 KB – 16 KB, each distinct (the paper's
#: precondition for a unique size→identity map).
PARTY_IMAGE_SIZES: Dict[str, int] = {
    "democratic": 5200,
    "republican": 6700,
    "libertarian": 8100,
    "green": 9900,
    "constitution": 11400,
    "transhumanist": 12800,
    "socialist": 14300,
    "american-solidarity": 15800,
}

#: The dynamically generated result page.
RESULT_HTML_BYTES = 9500

#: Object id of the result HTML (the paper's first object of interest).
HTML_OBJECT_ID = "result-html"

#: Table II inter-request gaps (seconds).
GAP_BEFORE_HTML = 0.500
GAP_AFTER_HTML = 0.160
GAP_BEFORE_FIRST_IMAGE = 0.780
IMAGE_GAPS = (0.0004, 0.002, 0.0003, 0.0001, 0.0003, 0.002, 0.0005)
GAP_AFTER_LAST_IMAGE = 0.026

#: Server processing (think) time ranges, seconds.
DYNAMIC_THINK = (0.060, 0.320)  # the survey-result HTML is generated
API_THINK = (0.040, 0.250)      # api/analytics endpoints
STATIC_THINK = (0.0005, 0.004)  # files off disk / cache


@dataclass
class IsideWithSite(Page):
    """One concrete result-page load plus its ground truth.

    Attributes:
        party_order: ground-truth preference order (the survey answer
            the adversary tries to recover).
        html_index: 0-based schedule position of the result HTML
            (position 5 → the 6th request, as in the paper).
        image_indices: schedule positions of the 8 emblem images.
    """

    party_order: Tuple[str, ...]
    html_index: int
    image_indices: Tuple[int, ...]

    @property
    def objects_of_interest(self) -> List[str]:
        """Object ids of the 9 targets: HTML first, then the 8 images."""
        return [HTML_OBJECT_ID] + [f"emblem-{p}" for p in self.party_order]

    def size_map(self) -> Dict[str, int]:
        """The adversary's pre-compiled object-size map."""
        return self.website.size_map()


def _static_assets() -> List[WebObject]:
    """The embedded objects besides the 8 emblems (39 of the 47)."""
    assets: List[WebObject] = []

    def add(path: str, size: int, ctype: str) -> None:
        assets.append(
            WebObject(path, size, ctype, think_time_range=STATIC_THINK)
        )

    # Stylesheets.
    add("/css/main.css", 48200, "text/css")
    add("/css/results.css", 12400, "text/css")
    add("/css/vendor.css", 31800, "text/css")
    add("/css/print.css", 2100, "text/css")
    add("/css/icons.css", 5400, "text/css")
    add("/css/mobile.css", 7700, "text/css")
    # Scripts (the results.js is the one that fetches the emblems).
    add("/js/jquery.min.js", 87500, "application/javascript")
    add("/js/app.js", 64100, "application/javascript")
    add("/js/results.js", 23800, "application/javascript")
    add("/js/charts.js", 41300, "application/javascript")
    add("/js/analytics.js", 17900, "application/javascript")
    add("/js/share.js", 9100, "application/javascript")
    add("/js/polyfill.js", 28400, "application/javascript")
    add("/js/consent.js", 6300, "application/javascript")
    add("/js/ads.js", 33600, "application/javascript")
    add("/js/lazyload.js", 4800, "application/javascript")
    add("/js/i18n.js", 11600, "application/javascript")
    add("/js/session.js", 3400, "application/javascript")
    # Fonts.
    add("/fonts/opensans.woff2", 36200, "font/woff2")
    add("/fonts/opensans-bold.woff2", 37100, "font/woff2")
    add("/fonts/icons.woff2", 21500, "font/woff2")
    # Images and icons.
    add("/img/logo.png", 14900, "image/png")
    add("/img/header-bg.jpg", 78300, "image/jpeg")
    add("/img/quiz-banner.jpg", 54700, "image/jpeg")
    add("/img/usa-map.svg", 26800, "image/svg+xml")
    add("/img/share-fb.png", 3100, "image/png")
    add("/img/share-tw.png", 2900, "image/png")
    add("/img/arrow.svg", 1200, "image/svg+xml")
    add("/img/check.svg", 1100, "image/svg+xml")
    add("/img/spinner.gif", 8600, "image/gif")
    add("/img/avatar-default.png", 4400, "image/png")
    add("/img/footer-bg.png", 19700, "image/png")
    add("/img/badge-2020.png", 7300, "image/png")
    add("/img/chart-bg.png", 5900, "image/png")
    add("/img/donate.png", 6100, "image/png")
    add("/favicon.ico", 5566, "image/x-icon")
    # Pre-result flow (api calls and the quiz page assets fetched on the
    # same connection before the result HTML — requests 1..5).
    assets.append(
        WebObject("/api/session", 1800, "application/json",
                  think_time_range=API_THINK)
    )
    assets.append(
        WebObject("/api/submit", 2600, "application/json",
                  think_time_range=API_THINK)
    )
    assets.append(
        WebObject("/api/regions", 21300, "application/json",
                  think_time_range=API_THINK)
    )
    assets.append(
        WebObject("/js/quiz.js", 52400, "application/javascript",
                  think_time_range=STATIC_THINK)
    )
    return assets


def build_isidewith_site(
    party_order: Sequence[str],
    gap_noise: float = 0.0,
    rng=None,
) -> IsideWithSite:
    """Build the site and the load schedule for one survey result.

    Args:
        party_order: the 8 parties in the user's preference order.
        gap_noise: relative jitter applied to every scheduled gap
            (uniform in ``[1 - gap_noise, 1 + gap_noise]``); models the
            browser-side timing variance across the paper's 100
            downloads per configuration.
        rng: a :class:`~repro.simkernel.randomstream.RandomStreams`
            when ``gap_noise`` is non-zero.

    Returns:
        The assembled :class:`IsideWithSite`.

    Raises:
        ValueError: if ``party_order`` is not a permutation of
            :data:`PARTIES`.
    """
    if sorted(party_order) != sorted(PARTIES):
        raise ValueError("party_order must be a permutation of PARTIES")
    if gap_noise and rng is None:
        raise ValueError("gap_noise requires an rng")

    html = WebObject(
        "/polls/2020-presidential-quiz/results",
        RESULT_HTML_BYTES,
        "text/html",
        object_id=HTML_OBJECT_ID,
        think_time_range=DYNAMIC_THINK,
    )
    emblems = [
        WebObject(
            f"/img/parties/{party}.png",
            PARTY_IMAGE_SIZES[party],
            "image/png",
            object_id=f"emblem-{party}",
            think_time_range=STATIC_THINK,
        )
        for party in PARTIES
    ]
    assets = _static_assets()
    website = Website("isidewith.com", [html] + emblems + assets)

    by_path = {obj.path: obj for obj in assets}

    def noisy(gap: float) -> float:
        if not gap_noise:
            return gap
        return gap * rng.uniform("browser.gap_noise", 1 - gap_noise, 1 + gap_noise)

    requests: List[ScheduledRequest] = []

    def req(obj: WebObject, gap: float, script_triggered: bool = False) -> None:
        requests.append(
            ScheduledRequest(noisy(gap), obj, script_triggered=script_triggered)
        )

    # Requests 1..5: the pre-result flow on the same connection.
    req(by_path["/api/session"], 0.010)
    req(by_path["/js/quiz.js"], 0.045)
    req(by_path["/api/regions"], 0.120)
    req(by_path["/favicon.ico"], 0.080)
    req(by_path["/api/submit"], 0.300)
    # Request 6: the result HTML — the paper's first object of interest.
    html_index = len(requests)
    req(html, GAP_BEFORE_HTML)
    # The embedded objects the HTML references, in bursts.
    mid_paths = [
        "/css/main.css", "/css/vendor.css", "/css/results.css",
        "/js/jquery.min.js", "/js/app.js", "/js/results.js",
        "/css/icons.css", "/css/mobile.css", "/css/print.css",
        "/js/charts.js", "/js/polyfill.js", "/js/i18n.js",
        "/fonts/opensans.woff2", "/fonts/icons.woff2",
        "/img/logo.png", "/img/header-bg.jpg", "/img/usa-map.svg",
        "/js/analytics.js", "/js/session.js", "/js/consent.js",
        "/img/quiz-banner.jpg", "/img/chart-bg.png",
    ]
    first_mid_gap = GAP_AFTER_HTML
    for index, path in enumerate(mid_paths):
        gap = first_mid_gap if index == 0 else (0.0008 if index % 4 else 0.018)
        req(by_path[path], gap)
    # The 8 party emblems, in the user's preference order (results.js).
    image_indices: List[int] = []
    emblem_by_party = {obj.object_id: obj for obj in emblems}
    for position, party in enumerate(party_order):
        gap = (
            GAP_BEFORE_FIRST_IMAGE if position == 0 else IMAGE_GAPS[position - 1]
        )
        image_indices.append(len(requests))
        req(emblem_by_party[f"emblem-{party}"], gap, script_triggered=True)
    # Trailing objects after the emblems.
    tail_paths = [
        "/img/share-fb.png", "/img/share-tw.png", "/img/arrow.svg",
        "/img/check.svg", "/img/avatar-default.png", "/img/spinner.gif",
        "/img/footer-bg.png", "/img/badge-2020.png", "/img/donate.png",
        "/fonts/opensans-bold.woff2", "/js/share.js", "/js/ads.js",
        "/js/lazyload.js",
    ]
    for index, path in enumerate(tail_paths):
        gap = GAP_AFTER_LAST_IMAGE if index == 0 else 0.0015
        req(by_path[path], gap)

    schedule = LoadSchedule(requests)
    return IsideWithSite(
        website=website,
        schedule=schedule,
        authority="www.isidewith.com",
        party_order=tuple(party_order),
        html_index=html_index,
        image_indices=tuple(image_indices),
    )
