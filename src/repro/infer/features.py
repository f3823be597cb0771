"""Integer feature vectors from observed TLS record sequences.

An observation is what the middlebox sees of one object's response: a
time-ordered sequence of ``(time_us, wire_length)`` pairs, one per TLS
application-data record (the cleartext record headers expose both).
Feature extraction turns it into a fixed-length vector of plain ints.
Two implementations compute it: :func:`extract_features` loops over one
observation in plain Python and is the reference, and
:func:`extract_features_auto` computes a whole :class:`ObservationBatch`
in a handful of int64 array operations and is the path the study runs.
There are no floats anywhere, so the two are bit-identical by
construction (the Hypothesis suite pins it anyway).

Vector layout (``feature_length(config)`` entries)::

    [0]                 record count
    [1]                 total wire bytes
    [2]                 min record length
    [3]                 max record length
    [4 .. 4+B)          record-length histogram (B bins of
                        ``hist_bin_bytes``, last bin open-ended)
    -- everything above is permutation-invariant in the lengths --
    [4+B]               first record length
    [4+B+1]             final record length
    [4+B+2 .. +P)       cumulative-size curve: total bytes after
                        ceil(k*n/P) records, k = 1..P
    then                burst count, max burst bytes, max burst records
                        (bursts split where the inter-arrival gap
                        exceeds ``burst_gap_us``)
    then                inter-arrival sum, max, and count of gaps
                        exceeding ``burst_gap_us`` (microseconds)

The *invariant prefix* (first ``invariant_prefix_length(config)``
entries) depends only on the multiset of record lengths: permuting
which length arrives at which timestamp cannot change it.  The
Hypothesis suite pins that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

#: One observed record: (arrival time in integer microseconds, wire length).
RecordObs = Tuple[int, int]


class ObservationBatch(NamedTuple):
    """Observations in flat segment form, the batch feature input.

    Observation ``i`` is records ``[start_i, start_i + counts[i])`` of
    the flat int64 ``times``/``lengths`` arrays, where ``start_i`` is
    the sum of the counts before it.
    """

    times: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs of the feature extractor (all integers).

    Attributes:
        hist_bin_bytes: width of one record-length histogram bin.
        hist_bins: histogram bins; lengths at or beyond the last edge
            land in the final bin.
        curve_points: samples of the cumulative-size curve.
        burst_gap_us: inter-arrival gap (microseconds) separating two
            bursts; also the threshold of the large-gap counter.
    """

    hist_bin_bytes: int = 512
    hist_bins: int = 12
    curve_points: int = 8
    burst_gap_us: int = 1000

    def __post_init__(self) -> None:
        if self.hist_bin_bytes < 1 or self.hist_bins < 1:
            raise ValueError("histogram shape must be positive")
        if self.curve_points < 1:
            raise ValueError("curve_points must be positive")
        if self.burst_gap_us < 1:
            raise ValueError("burst_gap_us must be positive")


def invariant_prefix_length(config: FeatureConfig) -> int:
    """Features [0, this) depend only on the multiset of lengths."""
    return 4 + config.hist_bins


def feature_length(config: FeatureConfig) -> int:
    """Total entries in one feature vector."""
    return invariant_prefix_length(config) + 2 + config.curve_points + 6


def extract_features(
    records: Sequence[RecordObs], config: FeatureConfig
) -> Tuple[int, ...]:
    """The integer feature vector of one time-ordered observation.

    Raises:
        ValueError: on an empty observation (nothing to classify).
    """
    n = len(records)
    if n == 0:
        raise ValueError("cannot extract features from an empty observation")
    times = [int(t) for t, _ in records]
    lengths = [int(l) for _, l in records]

    total = sum(lengths)
    features: List[int] = [n, total, min(lengths), max(lengths)]

    hist = [0] * config.hist_bins
    top = config.hist_bins - 1
    for length in lengths:
        index = length // config.hist_bin_bytes
        hist[index if index < top else top] += 1
    features.extend(hist)

    features.append(lengths[0])
    features.append(lengths[-1])

    cumulative = []
    running = 0
    for length in lengths:
        running += length
        cumulative.append(running)
    points = config.curve_points
    for k in range(1, points + 1):
        index = -(-k * n // points) - 1  # ceil(k*n/P) - 1
        features.append(cumulative[index])

    gap_limit = config.burst_gap_us
    burst_count = 1
    burst_bytes = lengths[0]
    burst_records = 1
    max_burst_bytes = burst_bytes
    max_burst_records = 1
    ia_sum = 0
    ia_max = 0
    ia_over = 0
    for i in range(1, n):
        gap = times[i] - times[i - 1]
        ia_sum += gap
        if gap > ia_max:
            ia_max = gap
        if gap > gap_limit:
            ia_over += 1
            burst_count += 1
            burst_bytes = 0
            burst_records = 0
        burst_bytes += lengths[i]
        burst_records += 1
        if burst_bytes > max_burst_bytes:
            max_burst_bytes = burst_bytes
        if burst_records > max_burst_records:
            max_burst_records = burst_records
    features.append(burst_count)
    features.append(max_burst_bytes)
    features.append(max_burst_records)
    features.append(ia_sum)
    features.append(ia_max)
    features.append(ia_over)
    return tuple(features)


def extract_features_auto(
    batch: ObservationBatch, config: FeatureConfig
) -> np.ndarray:
    """The int64 feature matrix of a batch, one row per observation.

    Row ``i`` equals :func:`extract_features` of observation ``i``.
    Per-observation reductions are ``ufunc.reduceat`` calls over the
    segment starts; per-burst reductions use a second, data-dependent
    boundary vector derived from the inter-arrival gaps.

    Raises:
        ValueError: when any observation is empty (same contract as the
            scalar extractor).
    """
    counts = batch.counts
    rows = len(counts)
    matrix = np.empty((rows, feature_length(config)), dtype=np.int64)
    if rows == 0:
        return matrix
    if (counts < 1).any():
        raise ValueError("cannot extract features from an empty observation")
    times, lengths = batch.times, batch.lengths
    ends = np.cumsum(counts)
    starts = ends - counts
    segment_of = np.repeat(np.arange(rows), counts)

    matrix[:, 0] = counts
    matrix[:, 1] = np.add.reduceat(lengths, starts)
    matrix[:, 2] = np.minimum.reduceat(lengths, starts)
    matrix[:, 3] = np.maximum.reduceat(lengths, starts)

    bins = config.hist_bins
    slot = np.minimum(lengths // config.hist_bin_bytes, bins - 1)
    column = 4 + bins
    matrix[:, 4:column] = np.bincount(
        segment_of * bins + slot, minlength=rows * bins
    ).reshape(rows, bins)

    matrix[:, column] = lengths[starts]
    matrix[:, column + 1] = lengths[ends - 1]
    column += 2

    cumulative = np.cumsum(lengths)
    before = cumulative[starts] - lengths[starts]
    points = config.curve_points
    k = np.arange(1, points + 1)
    # ceil(k*n/P) - 1 records into each segment.
    index = starts[:, None] + (k * counts[:, None] + points - 1) // points - 1
    matrix[:, column:column + points] = cumulative[index] - before[:, None]
    column += points

    # Inter-arrival gaps; the entry at each segment start is not a real
    # gap and is zeroed, which the scalar loop's zero-initialised sum
    # and max absorb alike.
    gaps = np.diff(times, prepend=times[:1])
    gaps[starts] = 0
    over = gaps > config.burst_gap_us
    gaps_over = np.bincount(segment_of[over], minlength=rows)

    # Every segment opens a burst and every large gap opens another, so
    # the bursts of a segment are contiguous in ``burst_starts``.
    boundary = over.copy()
    boundary[starts] = True
    burst_starts = np.flatnonzero(boundary)
    bursts = gaps_over + 1
    first_burst = np.cumsum(bursts) - bursts
    matrix[:, column] = bursts
    matrix[:, column + 1] = np.maximum.reduceat(
        np.add.reduceat(lengths, burst_starts), first_burst
    )
    matrix[:, column + 2] = np.maximum.reduceat(
        np.diff(burst_starts, append=len(lengths)), first_burst
    )

    matrix[:, column + 3] = np.add.reduceat(gaps, starts)
    matrix[:, column + 4] = np.maximum.reduceat(gaps, starts)
    matrix[:, column + 5] = gaps_over
    return matrix


def capture_record_sequence(capture, direction) -> List[RecordObs]:
    """The observed application-data record sequence of one capture.

    Reads the per-packet cleartext record headers
    (:attr:`~repro.netsim.capture.PacketRecord.tls_record_lengths`) the
    middlebox tap records, keeping records whose content type is 23 —
    the same ``ssl.record.content_type == 23`` filter the paper applies
    in tshark.  Times are integer microseconds.
    """
    sequence: List[RecordObs] = []
    for record in capture.in_direction(direction):
        for content_type, wire_length in zip(
            record.tls_content_types, record.tls_record_lengths
        ):
            if content_type == 23:
                sequence.append((round(record.time * 1_000_000), wire_length))
    return sequence


def observed_record_lengths(capture, direction) -> Tuple[int, ...]:
    """Just the wire lengths of the observed application-data records."""
    return tuple(length for _, length in capture_record_sequence(capture, direction))
