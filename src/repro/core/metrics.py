"""The degree-of-multiplexing metric (paper §II-A).

    "We define the degree of multiplexing of an object as the fraction
    of bytes of the object that is interleaved with those of another
    object within the same TCP stream."

Operationally, a byte of object O is *interleaved* when either

* it lies inside the stream extent (first byte .. last byte) of some
  other object served on the same TCP stream — O's bytes sit in the
  middle of another transfer; or
* O's own extent contains bytes of another object — O's transmission
  was split by foreign data, in which case **every** byte of O is
  interleaved, since no burst-summing observer can recover O's size.

An object transmitted contiguously with no other object's transmission
spanning it has degree 0 — exactly the condition under which the
Figure 1 delimiter heuristic recovers its size, which is why the paper
equates degree 0 with broken privacy.  Control records (SETTINGS,
WINDOW_UPDATE) interspersed in an object's extent do not count: they
perturb a size estimate by tens of bytes, not by object-scale amounts.

Under these two rules a serving's degree is always 0 or 1.  Foreign
bytes inside O's extent split O; a foreign extent that overlaps O's
without any byte inside it must straddle O's extent, and so covers
every byte of O.  The degree therefore says *whether* a serving was
multiplexed, and a mean degree over servings is the share of
multiplexed servings, not the paper's per-object byte fraction.

This is **ground truth**: it is computed from the server's symbolic
send-stream layout (which DATA bytes belong to which response
instance), not from anything the adversary can observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.h2.frames import DataFrame, HeadersFrame
from repro.h2.server import ResponseInstance
from repro.transport.stream import StreamLayout
from repro.tls.record import TLSRecord
from repro.tls.session import _Fragment


def _frame_context(record: TLSRecord):
    """The response instance a TLS record's payload belongs to, if any.

    Works for HTTP/2 DATA/HEADERS frames and for the HTTP/1.1 message
    chunks — anything exposing a ``context`` attribute referencing its
    response instance.
    """
    payload = record.payload
    if isinstance(payload, _Fragment):
        payload = payload.original
    return getattr(payload, "context", None)


def instance_byte_ranges(
    layout: StreamLayout,
) -> Dict[ResponseInstance, List[Tuple[int, int]]]:
    """Map each response instance to its byte ranges in the send stream.

    Ranges are the full TLS-record wire ranges (header + ciphertext) of
    the records carrying the instance's HEADERS/DATA frames, in stream
    order.
    """
    ranges: Dict[ResponseInstance, List[Tuple[int, int]]] = {}
    for span in layout.spans_completed_by(layout.next_seq):
        message = span.message
        if not isinstance(message, TLSRecord):
            continue
        instance = _frame_context(message)
        if instance is None:
            continue
        ranges.setdefault(instance, []).append((span.start, span.end))
    return ranges


def _merge(ranges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge adjacent/overlapping sorted ranges."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap_bytes(
    ranges: Sequence[Tuple[int, int]], extent: Tuple[int, int]
) -> int:
    lo, hi = extent
    total = 0
    for start, end in ranges:
        total += max(0, min(end, hi) - max(start, lo))
    return total


def degree_of_multiplexing(
    target: ResponseInstance,
    all_ranges: Dict[ResponseInstance, List[Tuple[int, int]]],
) -> float:
    """Fraction of ``target``'s stream bytes interleaved with others.

    The per-target reference for :meth:`MultiplexingReport.from_layout`.

    Args:
        target: the response instance of interest.
        all_ranges: output of :func:`instance_byte_ranges` for the
            connection the instance was served on.

    Returns:
        0.0 or 1.0 for the positive-length ranges of
        :func:`instance_byte_ranges`: 0.0 when no other instance's
        transmission interleaves with the target (the non-multiplexed,
        privacy-broken case); 1.0 when the target is split by foreign
        object bytes or lies inside another instance's extent.

    Raises:
        KeyError: when the target has no transmitted bytes (e.g. its
            frames were flushed by RST_STREAM before reaching the wire).
    """
    target_ranges = _merge(all_ranges[target])
    total = sum(end - start for start, end in target_ranges)
    if total == 0:
        raise KeyError(f"instance {target!r} transmitted no bytes")
    target_extent = (target_ranges[0][0], target_ranges[-1][1])

    interleaved_ranges: List[Tuple[int, int]] = []
    for other, other_ranges in all_ranges.items():
        if other is target or not other_ranges:
            continue
        # Split rule: any foreign object bytes inside the target's
        # extent make the whole target unsizable.
        if _overlap_bytes(other_ranges, target_extent) > 0:
            return 1.0
        extent = (
            min(start for start, _ in other_ranges),
            max(end for _, end in other_ranges),
        )
        for start, end in target_ranges:
            lo = max(start, extent[0])
            hi = min(end, extent[1])
            if hi > lo:
                interleaved_ranges.append((lo, hi))
    interleaved = sum(end - start for start, end in _merge(interleaved_ranges))
    return interleaved / total


def _all_degrees(
    all_ranges: Dict[ResponseInstance, List[Tuple[int, int]]],
) -> Dict[ResponseInstance, float]:
    """Degrees for every instance at once, from one sort of the extents.

    Equal to :func:`degree_of_multiplexing` per instance on the output
    of :func:`instance_byte_ranges`.  As the module docstring shows, a
    degree there is 1.0 exactly when another instance's extent overlaps
    the target's with positive length, and 0.0 otherwise.

    After sorting the extents by start, an extent overlaps an earlier
    one when the largest end seen so far passes its start, and a later
    one when the next extent starts before its end.  The result keeps
    ``all_ranges`` order; instances without ranges are left out.
    """
    served = [
        (instance, ranges) for instance, ranges in all_ranges.items() if ranges
    ]
    extents = [
        (min(start for start, _ in ranges), max(end for _, end in ranges))
        for _, ranges in served
    ]
    order = sorted(range(len(extents)), key=extents.__getitem__)
    degrees = [0.0] * len(extents)
    reach = -math.inf
    for rank, index in enumerate(order):
        start, end = extents[index]
        if reach > start or (
            rank + 1 < len(order) and extents[order[rank + 1]][0] < end
        ):
            degrees[index] = 1.0
        reach = max(reach, end)
    return {
        instance: degree for (instance, _), degree in zip(served, degrees)
    }


@dataclass
class MultiplexingReport:
    """Per-instance multiplexing summary for one server connection."""

    degrees: Dict[ResponseInstance, float] = field(default_factory=dict)

    @classmethod
    def from_layout(cls, layout: StreamLayout) -> "MultiplexingReport":
        """Compute degrees for every instance on a send stream."""
        report = cls()
        report.degrees = _all_degrees(instance_byte_ranges(layout))
        return report

    def for_object(
        self, object_id: str, include_duplicates: bool = True
    ) -> List[Tuple[ResponseInstance, float]]:
        """All (instance, degree) pairs of one object, in serve order."""
        pairs = [
            (instance, degree)
            for instance, degree in self.degrees.items()
            if instance.object_id == object_id
            and (include_duplicates or not instance.duplicate)
        ]
        return sorted(pairs, key=lambda pair: pair[0].instance_id)

    def original_degree(self, object_id: str) -> Optional[float]:
        """Degree of the first (non-duplicate) serving, or None."""
        pairs = self.for_object(object_id, include_duplicates=False)
        return pairs[0][1] if pairs else None

    def min_degree(self, object_id: str) -> Optional[float]:
        """Lowest degree across all servings (duplicates included)."""
        pairs = self.for_object(object_id)
        return min((degree for _, degree in pairs), default=None)
