"""Workload generation: volunteer sessions and synthetic populations.

The paper measured ≈500 volunteer survey sessions over three months;
each volunteer's result page displays the 8 parties in a personal
preference order, which is the ground truth the adversary's prediction
is scored against.  :class:`VolunteerWorkload` generates seeded random
orderings and builds the per-trial site instance.

:class:`PopulationWorkload` scales that study beyond the single
isidewith inventory: a heavy-tailed synthetic page population whose
object counts and sizes follow bounded zipf laws (web object
populations are famously heavy-tailed — the regime Morla's statistical
object-size estimation work targets).  Every page is derived from the
master seed and its session index alone, so a million-session campaign
is exactly reproducible and any session can be rebuilt in isolation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.simkernel.randomstream import (
    CounterStream,
    RandomStreams,
    counter_stream_base,
    counter_stream_seed,
)

if TYPE_CHECKING:
    from repro.web.isidewith import IsideWithSite


class VolunteerWorkload:
    """Generates per-trial isidewith sessions with ground-truth labels."""

    def __init__(
        self,
        seed: int = 0,
        gap_noise: float = 0.15,
    ) -> None:
        self._master = RandomStreams(seed)
        self.gap_noise = gap_noise

    def party_order_for(self, trial: int) -> Tuple[str, ...]:
        """The (seeded) preference order of volunteer ``trial``."""
        from repro.web.isidewith import PARTIES

        rng = self._master.spawn(f"trial-{trial}")
        return tuple(rng.shuffled("party-order", PARTIES))

    def trial_rng(self, trial: int) -> RandomStreams:
        """The independent random substream tree for one trial."""
        return self._master.spawn(f"trial-{trial}")

    def session(self, trial: int) -> IsideWithSite:
        """Build the site + schedule for one volunteer session."""
        from repro.web.isidewith import PARTIES, build_isidewith_site

        rng = self.trial_rng(trial)
        order = tuple(rng.shuffled("party-order", PARTIES))
        return build_isidewith_site(order, gap_noise=self.gap_noise, rng=rng)

    def sessions(self, count: int) -> Iterator[Tuple[int, IsideWithSite]]:
        """Yield ``count`` (trial_index, session) pairs."""
        for trial in range(count):
            yield trial, self.session(trial)


# ---------------------------------------------------------------------------
# Heavy-tail synthetic populations (the campaign engine's workload)
# ---------------------------------------------------------------------------


class ZipfSampler:
    """Inverse-CDF sampler for a bounded zipf distribution.

    Rank ``r`` over the support ``[low, high]`` carries probability
    proportional to ``r ** -exponent`` (rank 1 = ``low``).  The
    cumulative table is precomputed once; draws are one uniform plus a
    bisect, so a million-session campaign spends microseconds per draw.
    Results depend only on the sampler parameters and the stream state,
    never on platform or construction order.
    """

    def __init__(self, low: int, high: int, exponent: float) -> None:
        if low < 1 or high < low:
            raise ValueError(f"bad zipf support [{low}, {high}]")
        if exponent < 0:
            raise ValueError("zipf exponent must be non-negative")
        self.low = low
        self.high = high
        self.exponent = exponent
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, high - low + 2):
            total += rank ** -exponent
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, stream) -> int:
        """One draw using the given ``random.Random`` stream."""
        point = stream.random() * self._total
        return self.low + bisect.bisect_left(self._cdf, point)


@dataclass(frozen=True)
class PageSpec:
    """One synthetic page of the population — plain, picklable data.

    The spec is the *entire* ground truth of a campaign session: the
    embedded objects' body sizes, the dynamic target's body size, and
    where in the load order the target sits.  Both campaign modes
    consume it — the analytic evaluator reads the sizes directly, the
    full-simulation mode materialises a
    :class:`~repro.web.site.Website` from it via
    :func:`repro.web.generator.generate_site_from_spec`.

    Attributes:
        session: the session index the spec was derived from.
        object_sizes: body sizes of the embedded (static) objects, in
            rank order (largest first — the zipf rank-size law).
        target_size: body size of the dynamic target object.
    """

    session: int
    object_sizes: Tuple[int, ...]
    target_size: int

    @property
    def object_count(self) -> int:
        return len(self.object_sizes)

    @property
    def page_bytes(self) -> int:
        return sum(self.object_sizes) + self.target_size


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the heavy-tail page population.

    Attributes:
        min_objects / max_objects: support of the per-page embedded
            object count, drawn zipf with ``count_exponent`` (small
            pages are common, huge pages are the tail).
        count_exponent: zipf exponent of the object-count draw.
        size_exponent: rank-size exponent — the rank-``r`` object's
            size scales as ``head_bytes * r ** -size_exponent``.
        head_bytes: size scale of a page's rank-1 (largest) object.
        size_jitter: multiplicative noise on each object size (uniform
            in ``[1 - size_jitter, 1 + size_jitter]``) so sizes are
            heavy-tailed but not lattice-aligned.
        min_object_bytes: floor for generated object sizes.
        target_range: uniform support of the dynamic target's size
            (the survey-result-HTML analogue).
    """

    min_objects: int = 4
    max_objects: int = 96
    count_exponent: float = 0.9
    size_exponent: float = 1.1
    head_bytes: int = 220_000
    size_jitter: float = 0.35
    min_object_bytes: int = 420
    target_range: Tuple[int, int] = (2_500, 38_000)

    def __post_init__(self) -> None:
        if self.min_objects < 1 or self.max_objects < self.min_objects:
            raise ValueError("bad object-count support")
        if not 0 <= self.size_jitter < 1:
            raise ValueError("size_jitter must be in [0, 1)")
        if self.target_range[0] < 1 or self.target_range[1] < self.target_range[0]:
            raise ValueError("bad target size range")
        if self.min_object_bytes < 1:
            raise ValueError("min_object_bytes must be positive")


class PopulationWorkload:
    """Seeded heavy-tail page population for campaign sessions.

    Mirrors :class:`VolunteerWorkload`'s contract — everything derives
    from ``(seed, session index)`` — but generates zipf page catalogs
    instead of isidewith volunteer orderings.  Specs are tiny plain
    tuples, so generating a page costs microseconds and holds no
    simulator state; a campaign shard builds and discards them one at
    a time.
    """

    def __init__(
        self,
        seed: int = 0,
        config: PopulationConfig | None = None,
    ) -> None:
        self.seed = int(seed)
        self.config = config or PopulationConfig()
        self._master = RandomStreams(self.seed)
        self._count_sampler = ZipfSampler(
            self.config.min_objects,
            self.config.max_objects,
            self.config.count_exponent,
        )
        self._page_base = counter_stream_base(self.seed, "population/pagegen")
        self._analytic_base = counter_stream_base(
            self.seed, "population/analytic"
        )
        # Nominal rank sizes depend only on the config; precomputing the
        # full support once removes ``**`` from the per-page loop.
        self._nominal = tuple(
            self.config.head_bytes * rank ** -self.config.size_exponent
            for rank in range(1, self.config.max_objects + 1)
        )

    def session_rng(self, session: int) -> RandomStreams:
        """The independent random substream tree for one session.

        Mersenne-Twister streams, used only by ``full``-mode campaigns
        (the packet-level simulator draws far more than the fixed-count
        page/analytic draws below).
        """
        return self._master.spawn(f"page-{session}")

    def page_stream(self, session: int) -> CounterStream:
        """The counter-based page-generation stream of one session."""
        return CounterStream(counter_stream_seed(self._page_base, session))

    def analytic_stream(self, session: int) -> CounterStream:
        """The counter-based analytic-evaluator stream of one session."""
        return CounterStream(
            counter_stream_seed(self._analytic_base, session)
        )

    def page_spec(self, session: int) -> PageSpec:
        """Build the (deterministic) page spec for one session."""
        config = self.config
        stream = self.page_stream(session)
        count = self._count_sampler.sample(stream)
        nominal = self._nominal
        jitter_scale = config.size_jitter
        floor = config.min_object_bytes
        sizes = []
        for rank in range(count):
            jitter = 1.0 + jitter_scale * (2.0 * stream.random() - 1.0)
            size = round(nominal[rank] * jitter)
            sizes.append(size if size > floor else floor)
        target_size = stream.randint(*config.target_range)
        return PageSpec(
            session=session,
            object_sizes=tuple(sizes),
            target_size=target_size,
        )

    def page_specs(self, start: int, stop: int) -> Iterator[PageSpec]:
        """Yield specs for sessions ``start <= session < stop``."""
        for session in range(start, stop):
            yield self.page_spec(session)
