"""Numpy batch kernels for the analytic campaign engine.

One campaign shard — page generation, estimator noise, §V scoring and
the columnar fold — evaluated as a handful of array operations over
every session at once, instead of ~30 Python-level draws and a
candidate loop per session.

Bit-identity with the scalar path is a *construction*, not a hope:

* randomness is the same SplitMix64 counter stream
  (:class:`repro.simkernel.randomstream.CounterStream`) whose draw
  ``i`` is a closed-form ``mix64(seed + i * GAMMA)`` — computed by the
  array kernels beside it in that module with wrapping ``uint64``
  arithmetic, identical bit patterns;
* uniforms scale a 53-bit integer by an exact power of two; zipf
  inversion uses ``np.searchsorted(side="left")`` which matches
  ``bisect.bisect_left`` on the identical cumulative table;
* object sizes use ``np.rint`` (half-to-even, like Python ``round``)
  on the same precomputed nominal floats;
* the framing model is the same ``body / chunk`` float64 division and
  ceil as :func:`repro.core.predictor.expected_wire_payload`;
* all folded columns are integers, reduced with ``np.bincount`` /
  masked segment minima, so the columnar state — and therefore the
  campaign digest — is byte-identical to folding sessions one by one.

The scalar fallback stays the source of truth: every kernel here has a
Hypothesis equivalence test against the pure-Python path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.campaign.columnar import ColumnarSummary
from repro.core.predictor import (
    FRAME_HEADER,
    RECORD_OVERHEAD,
    RESPONSE_HEADERS_WIRE,
)
from repro.simkernel.randomstream import counter_seeds, randint, uniform

#: Sentinel error for candidates outside the tolerance window (far
#: above any real byte error, far below int64 overflow when summed).
_BIG_ERROR = 1 << 62


def expected_wire_payload_batch(
    body_bytes: np.ndarray, chunk_bytes: int
) -> np.ndarray:
    """Vectorized :func:`repro.core.predictor.expected_wire_payload`.

    Same float64 true division and ceil as the scalar ``math.ceil``
    path, so results agree bit-for-bit for any realistic body size.
    """
    frames = np.maximum(
        np.ceil(body_bytes / float(chunk_bytes)), 1.0
    ).astype(np.int64)
    overhead = FRAME_HEADER + RECORD_OVERHEAD
    return body_bytes + frames * overhead + RESPONSE_HEADERS_WIRE


# ---------------------------------------------------------------------------
# Page generation (vectorized PopulationWorkload.page_spec)
# ---------------------------------------------------------------------------


def generate_pages(workload, start: int, stop: int) -> Dict[str, np.ndarray]:
    """Generate sessions ``[start, stop)`` as flat integer columns.

    Returns the ragged page population in segment form::

        counts    (S,)  objects per session
        sizes     (T,)  object body sizes, all sessions concatenated
        session_of(T,)  owning session row of each flat object
        targets   (S,)  target body sizes

    Values are bit-identical to ``workload.page_spec(session)`` for
    each session in the range.
    """
    config = workload.config
    sessions = np.arange(start, stop, dtype=np.uint64)
    page_seeds = counter_seeds(workload.page_stream_base, sessions)

    # Draw 1: zipf object count by inverse CDF, as in ZipfSampler.
    cdf = np.asarray(workload.count_cdf, dtype=np.float64)
    points = uniform(page_seeds, 1) * cdf[-1]
    counts = (
        np.searchsorted(cdf, points, side="left").astype(np.int64)
        + config.min_objects
    )

    # Draws 2..count+1: per-rank size jitter, flattened across sessions.
    total = int(counts.sum())
    session_of = np.repeat(np.arange(counts.shape[0]), counts)
    segment_starts = np.concatenate(
        ([0], np.cumsum(counts)[:-1])
    ).astype(np.int64)
    ranks = np.arange(total, dtype=np.int64) - segment_starts[session_of]
    jitter_u = uniform(page_seeds[session_of], ranks + 2)
    jitter = 1.0 + config.size_jitter * (2.0 * jitter_u - 1.0)
    nominal = np.asarray(workload.nominal_sizes, dtype=np.float64)
    sizes = np.rint(nominal[ranks] * jitter).astype(np.int64)
    np.maximum(sizes, config.min_object_bytes, out=sizes)

    # Draw count+2: the uniform target size.
    low, high = config.target_range
    targets = randint(page_seeds, counts + 2, low, high)
    return {
        "counts": counts,
        "sizes": sizes,
        "session_of": session_of,
        "targets": targets,
    }


# ---------------------------------------------------------------------------
# Analytic evaluation (vectorized evaluate_page_analytic)
# ---------------------------------------------------------------------------


def _evaluate_columns(
    counts: np.ndarray,
    sizes: np.ndarray,
    session_of: np.ndarray,
    targets: np.ndarray,
    analytic_seeds: np.ndarray,
    model,
) -> Dict[str, np.ndarray]:
    """Score every session; returns the columnar fold inputs as arrays.

    Mirrors :func:`repro.campaign.engine.evaluate_page_analytic` draw
    for draw: a record-miscount Bernoulli (whose *hit* consumes the
    sign draw, shifting later draw indices by one), uniform byte noise,
    first-wins nearest-match scoring with the target as candidate 0,
    and the object-count-calibrated serialization Bernoulli.
    """
    rows = counts.shape[0]
    chunk = model.chunk_bytes

    # Estimator noise draws; draw indices after a miscount shift by 1.
    miscount_hit = uniform(analytic_seeds, 1) < model.record_miscount_rate
    sign = np.where(uniform(analytic_seeds, 2) < 0.5, 1, -1)
    miscount = np.where(miscount_hit, sign, 0)
    noise_draw = np.where(miscount_hit, 3, 2)
    noise = randint(
        analytic_seeds, noise_draw, -model.noise_bytes, model.noise_bytes
    )
    serialize_draw = np.where(miscount_hit, 4, 3)

    expected_target = expected_wire_payload_batch(targets, chunk)
    observed = expected_target + miscount * RECORD_OVERHEAD + noise

    tolerance_abs = float(model.tolerance_abs)
    tolerance_rel = model.tolerance_rel

    # Candidate 0 (the target) scored against itself.
    target_error = np.abs(observed - expected_target)
    target_budget = np.maximum(
        tolerance_abs, tolerance_rel * expected_target
    )
    target_in_tol = target_error <= target_budget

    # Embedded objects, scored flat and reduced per segment.
    expected_obj = expected_wire_payload_batch(sizes, chunk)
    obj_error = np.abs(observed[session_of] - expected_obj)
    obj_budget = np.maximum(tolerance_abs, tolerance_rel * expected_obj)
    obj_in_tol = obj_error <= obj_budget
    confusers = np.bincount(
        session_of, weights=obj_in_tol, minlength=rows
    ).astype(np.int64)
    # Segment minimum of in-tolerance object errors.  bincount-based
    # sums are exact; for the minimum we use a masked sort-free
    # reduction: scatter errors into per-session slots via np.minimum
    # on a reversed-stable ordering trick is overkill — counts >= 1
    # ragged segments reduce cleanly with minimum.reduceat over a
    # sentinel-padded array, and rows with zero objects fall back to
    # the sentinel afterwards.
    masked_error = np.where(obj_in_tol, obj_error, _BIG_ERROR)
    if sizes.shape[0]:
        segment_starts = np.concatenate(
            ([0], np.cumsum(counts)[:-1])
        ).astype(np.int64)
        padded = np.concatenate((masked_error, [_BIG_ERROR]))
        starts = np.minimum(segment_starts, masked_error.shape[0])
        min_other = np.minimum.reduceat(padded, starts)
        min_other = np.where(counts > 0, min_other, _BIG_ERROR)
    else:
        min_other = np.full(rows, _BIG_ERROR, dtype=np.int64)

    # First-wins rule: an object only displaces the target on a
    # *strictly* smaller error, so the target survives ties.
    identified = target_in_tol & (min_other >= target_error)
    match_error = np.where(identified, target_error, 0)

    serialize_rate = np.maximum(
        model.serialize_floor,
        model.serialize_base - model.serialize_slope * counts,
    )
    serialized = uniform(analytic_seeds, serialize_draw) < serialize_rate

    page_bytes = (
        np.bincount(session_of, weights=sizes, minlength=rows).astype(
            np.int64
        )
        + targets
    )
    return {
        "objects": counts,
        "page_bytes": page_bytes,
        "target_bytes": targets,
        "serialized": serialized,
        "identified": identified,
        "confusers": confusers,
        "match_error": match_error,
    }


def evaluate_shard_analytic(
    workload, start: int, stop: int, model
) -> ColumnarSummary:
    """Evaluate one analytic shard in batch; returns its columnar fold.

    The fast backend's replacement for the scalar per-session loop in
    :class:`repro.campaign.engine.ShardTask` — bit-identical summary,
    one array program instead of ``stop - start`` Python sessions.
    """
    pages = generate_pages(workload, start, stop)
    sessions = np.arange(start, stop, dtype=np.uint64)
    analytic_seeds = counter_seeds(workload.analytic_stream_base, sessions)
    columns = _evaluate_columns(
        pages["counts"],
        pages["sizes"],
        pages["session_of"],
        pages["targets"],
        analytic_seeds,
        model,
    )
    summary = ColumnarSummary()
    summary.fold_batch(**columns)
    return summary


def evaluate_pages_analytic(
    specs: Sequence, seeds: Sequence[int], model
) -> List[Dict[str, Any]]:
    """Batch-evaluate explicit ``PageSpec``s with explicit stream seeds.

    Returns one dict per spec with the exact keys and values of
    :func:`repro.campaign.engine.evaluate_page_analytic` run with
    ``CounterStream(seed)`` — the equivalence surface the Hypothesis
    suite exercises (including zero-object pages the population never
    generates).
    """
    counts = np.asarray(
        [spec.object_count for spec in specs], dtype=np.int64
    )
    sizes = np.asarray(
        [size for spec in specs for size in spec.object_sizes],
        dtype=np.int64,
    )
    session_of = np.repeat(np.arange(len(specs)), counts)
    targets = np.asarray(
        [spec.target_size for spec in specs], dtype=np.int64
    )
    analytic_seeds = np.asarray(list(seeds), dtype=np.uint64)
    columns = _evaluate_columns(
        counts, sizes, session_of, targets, analytic_seeds, model
    )
    results: List[Dict[str, Any]] = []
    for row in range(len(specs)):
        results.append(
            {
                "objects": int(columns["objects"][row]),
                "page_bytes": int(columns["page_bytes"][row]),
                "target_bytes": int(columns["target_bytes"][row]),
                "serialized": bool(columns["serialized"][row]),
                "identified": bool(columns["identified"][row]),
                "confusers": int(columns["confusers"][row]),
                "match_error": int(columns["match_error"][row]),
                "broken": False,
                "duration_us": 0,
            }
        )
    return results
