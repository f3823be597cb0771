"""Seeded, named random substreams.

Every stochastic component (link jitter, browser think times, workload
orderings) draws from its own named substream derived from a single
master seed.  Components therefore stay statistically independent, and
adding a new consumer never perturbs the draws of existing ones — the
property that makes multi-trial experiments reproducible.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict, List, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotation only
    import numpy as np

T = TypeVar("T")

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Weyl-sequence increment of SplitMix64 (the golden-ratio constant).
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
#: Exact power of two: scaling a 53-bit integer by it is lossless, so
#: the scalar and vectorized paths produce the identical double.
_RECIP_2_53 = 1.0 / 9007199254740992.0


def mix64(value: int) -> int:
    """SplitMix64's finalizer: avalanche one 64-bit value.

    Pure 64-bit integer arithmetic (no platform-dependent state), so the
    numpy ``uint64`` kernel :func:`_mix64` computes the identical value —
    the property every vectorized draw's bit-identity rests on.
    """
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


def counter_stream_base(master_seed: int, name: str) -> int:
    """Stable 64-bit base of a named counter-stream family.

    The name is hashed once (sha256, like :class:`RandomStreams`) and
    mixed with the master seed; per-index seeds then derive from the
    base arithmetically via :func:`counter_stream_seed`, with no hash
    per session.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    label = int.from_bytes(digest[:8], "big")
    return mix64((int(master_seed) & _MASK64) ^ label)


def counter_stream_seed(base: int, index: int) -> int:
    """The seed of stream ``index`` within a counter-stream family."""
    return mix64((base + (index + 1) * SPLITMIX_GAMMA) & _MASK64)


# Vectorized SplitMix64 ------------------------------------------------
#
# The same formulas over numpy ``uint64`` arrays, whose arithmetic wraps
# modulo 2**64 exactly like the masked scalar code above, so draw ``i``
# of a stream is the identical bit pattern either way.  numpy is
# imported on first use: the packet-level simulator never needs it.


def _mix64(z: "np.ndarray") -> "np.ndarray":
    """:func:`mix64` over a uint64 array (wrapping arithmetic)."""
    import numpy as np

    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_MULT_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_MULT_2)
    return z ^ (z >> np.uint64(31))


def draw64(seeds: "np.ndarray", draw: "np.ndarray | int") -> "np.ndarray":
    """The ``draw``-th (1-indexed) 64-bit output of each counter stream.

    ``seeds`` are :attr:`CounterStream.seed` values (already masked to
    64 bits); ``draw`` is one index or an array broadcast against them.
    """
    import numpy as np

    if isinstance(draw, np.ndarray):
        offset = draw.astype(np.uint64) * np.uint64(SPLITMIX_GAMMA)
    else:
        # Wrap in Python int arithmetic: numpy warns on *scalar*
        # uint64 overflow even though array overflow wraps silently.
        offset = np.uint64((int(draw) * SPLITMIX_GAMMA) & _MASK64)
    return _mix64(seeds + offset)


def uniform(seeds: "np.ndarray", draw: "np.ndarray | int") -> "np.ndarray":
    """:meth:`CounterStream.random` at the given draw index (exact)."""
    import numpy as np

    top53 = draw64(seeds, draw) >> np.uint64(11)
    return top53.astype(np.float64) * _RECIP_2_53


def randint(
    seeds: "np.ndarray", draw: "np.ndarray | int", low: int, high: int
) -> "np.ndarray":
    """:meth:`CounterStream.randint` at the given draw index (exact).

    Raises:
        ValueError: on an empty range — numpy's ``%`` by a zero span
            would return 0 with only a warning.
    """
    import numpy as np

    if high < low:
        raise ValueError(f"empty randint range [{low}, {high}]")
    span = np.uint64(high - low + 1)
    return (draw64(seeds, draw) % span).astype(np.int64) + low


class CounterStream:
    """A counter-based (SplitMix64) random substream.

    Unlike the Mersenne-Twister streams of :class:`RandomStreams`,
    draw ``i`` is a *closed-form* function of ``(seed, i)``::

        output_i = mix64(seed + i * SPLITMIX_GAMMA)

    so the array kernels above (:func:`uniform`, :func:`randint`) can
    compute any draw of any stream without sequential state — the
    property that makes the batched infer observations bit-identical
    to this scalar implementation.
    The interface mirrors the ``random.Random`` subset the analytic
    campaign path consumes (``random``/``randint``).

    ``randint`` maps a 64-bit draw onto the span by modulo; the bias is
    ``span / 2**64`` (immeasurable for the byte-scale spans used here)
    and, unlike rejection sampling, every draw consumes exactly one
    counter tick — which keeps draw indices data-independent.
    """

    __slots__ = ("seed", "_index")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & _MASK64
        self._index = 0

    @property
    def position(self) -> int:
        """Draws consumed so far; the next draw has index ``position + 1``."""
        return self._index

    def advance(self, draws: int) -> None:
        """Consume ``draws`` draws without computing them.

        For array kernels that compute a stream's draws at their
        closed-form indices (:func:`draw64`) and must leave the stream
        where the equivalent sequence of scalar calls would.
        """
        self._index += draws

    def _next64(self) -> int:
        self._index += 1
        return mix64((self.seed + self._index * SPLITMIX_GAMMA) & _MASK64)

    def random(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self._next64() >> 11) * _RECIP_2_53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (one counter tick, modulo map)."""
        if high < low:
            raise ValueError(f"empty randint range [{low}, {high}]")
        return low + self._next64() % (high - low + 1)

    def __repr__(self) -> str:
        return f"CounterStream(seed={self.seed:#x}, index={self._index})"


class RandomStreams:
    """A factory of independent ``random.Random`` substreams."""

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use.

        The substream seed is a stable hash of ``(master_seed, name)``,
        so the same name always yields the same sequence for a given
        master seed, independent of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self._master_seed}:{name}".encode("utf-8")
        ).digest()
        seed = int.from_bytes(digest[:8], "big")
        stream = random.Random(seed)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child :class:`RandomStreams` (e.g. one per trial)."""
        digest = hashlib.sha256(
            f"{self._master_seed}/spawn/{name}".encode("utf-8")
        ).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    # Convenience draws -------------------------------------------------

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform draw from the named substream."""
        return self.stream(name).uniform(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """Exponential draw with the given rate from the named substream."""
        return self.stream(name).expovariate(rate)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Pick one element from ``options`` using the named substream."""
        return self.stream(name).choice(list(options))

    def shuffled(self, name: str, items: Sequence[T]) -> List[T]:
        """Return a shuffled copy of ``items`` (the input is untouched)."""
        copy = list(items)
        self.stream(name).shuffle(copy)
        return copy

    def __repr__(self) -> str:
        return (
            f"RandomStreams(seed={self._master_seed}, "
            f"streams={sorted(self._streams)})"
        )
