"""The seeded observation model: pages → defended record sequences.

Glues the zipf page population to the feature extractor under each
defense level.  An *observation* is what the middlebox sees of one
object's response during a multiplexed page load:

* the object's own records, derived from the framing model the whole
  testbed shares (HTTP/2 DATA chunks of ``chunk_bytes``, one TLS record
  per frame, a HEADERS record in front — the constants of
  :mod:`repro.core.predictor`);
* the defense transform — per-record padding, interleaved chaff
  records (:class:`~repro.infer.defenses.DefenseConfig`);
* multiplexing contamination — foreign records of the page's *other*
  objects spliced in at seeded positions (suppressed when the pipeline
  defense serializes responses);
* seeded integer timing (base gap + jitter + occasional think pauses).

Every observation draws from its own counter stream named by
``(role, level, session, object, rep)``, so any subset of levels,
sessions or reps reproduces identical observations — the property that
makes shard/worker/resume slicing bit-stable.  Because a counter
stream's draw ``i`` is a closed form of ``(seed, i)``, :func:`observe`
builds all observations of one (session, level) at once: one array
pass computes every stream's data-dependent draws, Python only splices
the drawn records into the sequences, a second array pass computes the
two timing draws per record, and the result is a flat
:class:`~repro.infer.features.ObservationBatch`.

An infer shard is one array program (:func:`evaluate_sessions`).  Each
session joins its levels' batches for one call to the numpy feature
kernel.  Sessions whose pages keep the same number of objects share
their labels, and each classifier fits all of their (session × level)
models in one stacked call and predicts their victims in another.  A
group's features stay in memory until its predictions end, about 23 KB
per session at the ``repro infer`` defaults.
:func:`evaluate_session` is the one-session case.

The attacker trains on its own seeded fetches (role ``train``) and
classifies the victim's (role ``victim``); both see the same
contamination *distribution* but disjoint draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.predictor import FRAME_HEADER, RECORD_OVERHEAD, RESPONSE_HEADERS_WIRE
from repro.experiments.executor import heartbeat
from repro.infer.classifiers import classifier_names, resolve_classifier
from repro.infer.defenses import DefenseConfig, DefenseOverhead, defense_level, defense_level_names
from repro.infer.features import (
    FeatureConfig,
    ObservationBatch,
    extract_features_auto,
    feature_length,
)
from repro.simkernel.randomstream import (
    CounterStream,
    counter_stream_base,
    draw64,
    randint,
)
from repro.web.workload import PopulationConfig, PopulationWorkload

#: Plaintext bytes of the response HEADERS record (its wire size is the
#: shared ``RESPONSE_HEADERS_WIRE`` constant).
HEADERS_PLAINTEXT = RESPONSE_HEADERS_WIRE - RECORD_OVERHEAD


@dataclass(frozen=True)
class StudyDesign:
    """Everything one inference study derives from (picklable, frozen).

    Attributes:
        seed: master seed; every stream derives from it.
        reps: attacker training fetches per object.
        max_objects: classes per page (the largest-ranked objects).
        chunk_bytes: DATA chunk size of the framing model.
        gap_base_us / gap_jitter_us: per-record inter-arrival base and
            uniform jitter, microseconds.
        pause_one_in: one record in this many is preceded by a think
            pause of ``pause_us`` (burst structure).
        mux_max_inserts: per-observation ceiling on contamination
            records spliced in from the page's other objects.
        levels: defense-level names swept, ladder order.
        classifiers: registry names evaluated per level.
        features: the feature-extractor shape.
        population: the zipf page population knobs.
    """

    seed: int = 2020
    reps: int = 3
    max_objects: int = 8
    chunk_bytes: int = 2048
    gap_base_us: int = 400
    gap_jitter_us: int = 300
    pause_one_in: int = 20
    pause_us: int = 8000
    mux_max_inserts: int = 4
    levels: Tuple[str, ...] = defense_level_names()
    classifiers: Tuple[str, ...] = classifier_names()
    features: FeatureConfig = FeatureConfig()
    population: PopulationConfig = PopulationConfig()

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.max_objects < 2:
            raise ValueError("need at least two classes per page")
        if self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")
        if self.pause_one_in < 1:
            raise ValueError("pause_one_in must be positive")
        for knob in ("gap_base_us", "gap_jitter_us", "pause_us", "mux_max_inserts"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be non-negative")
        if not self.levels:
            raise ValueError("need at least one defense level")
        # Summaries key their counters by name: a repeated name would
        # fold one cell once per repeat.
        for axis, names in (
            ("defense level", self.levels), ("classifier", self.classifiers)
        ):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"repeated {axis} name(s): {', '.join(repeated)}")
        for name in self.levels:
            defense_level(name)  # validates early, worker-side errors are ugly
        for name in self.classifiers:
            if name not in classifier_names():
                raise ValueError(
                    f"unknown classifier {name!r} "
                    f"(registered: {', '.join(classifier_names())})"
                )


def base_plaintext_records(body_bytes: int, chunk_bytes: int) -> Tuple[int, ...]:
    """Undefended plaintext record lengths of one response.

    One HEADERS record, then one record per DATA chunk — the shape the
    live server actually emits (every ``send_data`` frame becomes one
    ``send_application`` call).
    """
    if body_bytes < 1:
        raise ValueError("body must be positive")
    records = [HEADERS_PLAINTEXT]
    remaining = body_bytes
    while remaining > 0:
        chunk = min(chunk_bytes, remaining)
        remaining -= chunk
        records.append(chunk + FRAME_HEADER)
    return tuple(records)


def defended_wire_records(
    plaintext_records: Sequence[int], level: DefenseConfig
) -> Tuple[int, ...]:
    """Observed wire lengths of one response under a defense level.

    Each distinct plaintext length is padded once: a response holds at
    most three (HEADERS, a full DATA chunk and the tail).
    """
    wire = {
        plaintext: level.pad(plaintext) + RECORD_OVERHEAD
        for plaintext in set(plaintext_records)
    }
    return tuple(map(wire.__getitem__, plaintext_records))


def observation_stream(
    design: StudyDesign,
    role: str,
    level: DefenseConfig,
    session: int,
    obj: int,
    rep: int,
) -> CounterStream:
    """The independent counter stream of one observation."""
    return CounterStream(counter_stream_base(
        design.seed,
        f"infer/{role}/{level.name}/s{session}/o{obj}/r{rep}",
    ))


def observe(
    objects: Sequence[int],
    streams: Sequence[CounterStream],
    object_records: Sequence[Tuple[int, ...]],
    level: DefenseConfig,
    design: StudyDesign,
) -> ObservationBatch:
    """Observation ``i`` of object ``objects[i]`` from ``streams[i]``, batched.

    Draw order per observation (fixed; determinism depends on it):
    chaff positions, contamination count then per-insert (object,
    record, position) triples, then per-record timing (jitter, pause)
    pairs.  Every draw sits at a closed-form counter index, so none is
    drawn one call at a time:

    * the data-dependent draws of a stream left at position ``p`` are
      draws ``p + 1 ..``: ``chaff_records`` chaff positions, then (when
      contaminating) the insert count and ``mux_max_inserts``
      (object, record, position) triples.  One :func:`draw64` pass
      computes them for every stream, triples the count leaves unused
      included; each value is then reduced modulo the span the scalar
      ``randint`` would use, and Python only splices the records into
      the sequences.  Each stream is advanced past the draws it used,
      to the position ``p'`` the draw-by-draw loop leaves it at;
    * record ``k`` then draws its timing pair at ``p' + 2k + 1`` and
      ``p' + 2k + 2`` in a second array pass over the whole batch, and
      the streams stay at ``p'``.
    """
    chaff = level.chaff_records
    chaff_wire = level.chaff_record_plaintext + RECORD_OVERHEAD
    others = len(object_records) - 1
    contaminate = not level.pipeline and others > 0
    slots = design.mux_max_inserts if contaminate else 0
    rows = len(streams)
    seeds = np.array([stream.seed for stream in streams], dtype=np.uint64)
    positions = np.array([stream.position for stream in streams], dtype=np.int64)
    owner = np.asarray(objects, dtype=np.int64)[:, None]
    sizes = np.array([len(records) for records in object_records], dtype=np.uint64)
    own = sizes[owner]
    width = chaff + (1 + 3 * slots if contaminate else 0)
    draws = draw64(seeds[:, None], positions[:, None] + np.arange(1, width + 1))
    # randint(0, n) is draw % (n + 1): a record inserted into a sequence
    # of n records goes to one of n + 1 places.
    chaff_at = draws[:, :chaff] % (own + np.arange(1, chaff + 1, dtype=np.uint64))
    inserts = np.zeros(rows, dtype=np.int64)
    used = np.full(rows, chaff)
    if contaminate:
        inserts = (draws[:, chaff] % np.uint64(slots + 1)).astype(np.int64)
        used += 1 + 3 * inserts
    triples = draws[:, chaff + 1:].reshape(rows, slots, 3)
    pick = (triples[:, :, 0] % np.uint64(others)).astype(np.int64)
    source = pick + (pick >= owner)  # skips the observation's own object
    source_record = triples[:, :, 1] % sizes[source]
    insert_at = triples[:, :, 2] % (
        own + np.arange(chaff + 1, chaff + slots + 1, dtype=np.uint64)
    )

    sequences: List[List[int]] = []
    for obj, stream, chaff_places, count, sources, picks, places, skip in zip(
        objects, streams, chaff_at.tolist(), inserts.tolist(), source.tolist(),
        source_record.tolist(), insert_at.tolist(), used.tolist(),
    ):
        sequence = list(object_records[obj])
        for at in chaff_places:
            sequence.insert(at, chaff_wire)
        for other, picked, at in zip(sources[:count], picks, places):
            sequence.insert(at, object_records[other][picked])
        stream.advance(skip)
        sequences.append(sequence)

    counts = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
    total = int(counts.sum())
    lengths = np.fromiter(chain.from_iterable(sequences), np.int64, total)
    starts = np.cumsum(counts) - counts
    segment_of = np.repeat(np.arange(len(counts)), counts)
    positions += used
    record_seeds = seeds[segment_of]
    record = np.arange(total) - starts[segment_of]
    jitter_draw = positions[segment_of] + 2 * record + 1
    gaps = design.gap_base_us + randint(
        record_seeds, jitter_draw, 0, design.gap_jitter_us
    )
    paused = randint(
        record_seeds, jitter_draw + 1, 0, design.pause_one_in - 1
    ) == 0
    gaps[paused] += design.pause_us
    # Arrival times: per-observation running sums of the gaps.
    cumulative = np.cumsum(gaps)
    times = cumulative - np.repeat(cumulative[starts] - gaps[starts], counts)
    return ObservationBatch(times, lengths, counts)


def level_overhead(
    base_wire: Sequence[Tuple[int, ...]],
    defended_wire: Sequence[Tuple[int, ...]],
    level: DefenseConfig,
    design: StudyDesign,
) -> DefenseOverhead:
    """Exact integer cost of serving one page at one defense level.

    Latency: each chaff record occupies one emission slot
    (``gap_base_us``); pipelining makes every response wait for all
    records — real and chaff — of the responses ahead of it.
    """
    overhead = DefenseOverhead(
        base_bytes=sum(sum(records) for records in base_wire),
        defended_bytes=sum(sum(records) for records in defended_wire),
        chaff_bytes=(
            (level.chaff_record_plaintext + RECORD_OVERHEAD)
            * level.chaff_records * len(base_wire)
        ),
        latency_us=(
            level.chaff_records * design.gap_base_us * len(base_wire)
        ),
    )
    if level.pipeline:
        preceding_records = 0
        for records in defended_wire[:-1]:
            preceding_records += len(records) + level.chaff_records
            overhead.latency_us += preceding_records * design.gap_base_us
        # Each later response waits on everything before it; the sum
        # above adds response i's queue depth once per follower.
    return overhead


def _observe_session(
    session: int,
    sizes: Sequence[int],
    levels: Sequence[DefenseConfig],
    design: StudyDesign,
) -> Tuple[Dict[str, object], np.ndarray]:
    """One page's result skeleton and its (level, sample, feature) stack.

    Every level is observed first, and one feature pass covers the
    concatenated observation batch.  Samples are the attacker's
    training fetches (object-major, ``reps`` per object), then one
    victim fetch per object.  The skeleton carries each level's
    overhead entry with an empty ``classifiers`` dict for the fits to
    fill in.
    """
    count = len(sizes)
    plaintext = [
        base_plaintext_records(body, design.chunk_bytes) for body in sizes
    ]
    base_wire = [defended_wire_records(rec, defense_level("off")) for rec in plaintext]
    labels = list(range(count))
    objects = [obj for obj in labels for _ in range(design.reps)] + labels
    entries: Dict[str, Dict[str, object]] = {}
    batches = []
    for level in levels:
        records = [defended_wire_records(rec, level) for rec in plaintext]
        streams = [
            observation_stream(design, "train", level, session, obj, rep)
            for obj in labels
            for rep in range(design.reps)
        ] + [
            observation_stream(design, "victim", level, session, obj, 0)
            for obj in labels
        ]
        batches.append(observe(objects, streams, records, level, design))
        entry = level_overhead(base_wire, records, level, design).to_json()
        entry["classifiers"] = {}
        entries[level.name] = entry
    batch = ObservationBatch(*map(np.concatenate, zip(*batches)))
    features = extract_features_auto(batch, design.features).reshape(
        len(levels), len(objects), -1
    )
    return {"session": session, "objects": count, "levels": entries}, features


def evaluate_session(session: int, design: StudyDesign) -> Dict[str, object]:
    """The full frontier of one page: every level × every classifier.

    The one-session case of :func:`evaluate_sessions`.  Returns a
    plain-JSON dict (checkpointable) of integer counters — see
    :class:`repro.infer.summary.InferSummary.fold` for the shape.  No
    runner calls it: the tests use it as the one-session oracle, and
    the benchmark suite's ledger (``benchmarks/suite/ledger.py``)
    imports it until ROADMAP item 6 retimes that span.
    """
    return evaluate_sessions([session], design)[0]


def evaluate_sessions(
    sessions: Sequence[int], design: StudyDesign
) -> List[Dict[str, object]]:
    """The frontier of every page in ``sessions``, as one array program.

    Sessions whose pages keep the same number of objects (after the
    ``max_objects`` cut) share their training labels, so they form one
    group.  Group by group, each session is observed and featurized in
    turn, with one heartbeat per session, into the group's
    (session·level, sample, feature) stack.  Then each classifier fits
    all of the group's (session × level) models in one
    :meth:`~repro.infer.classifiers.Classifier.fit_levels` call,
    predicts every model's victims in one
    :meth:`~repro.infer.classifiers.Classifier.predict_levels` call,
    and one array comparison counts each model's correct predictions.
    A model and its predictions do not depend on what is stacked beside
    it, so result ``i`` equals ``evaluate_session(sessions[i], design)``.

    Memory: a group's features stay in memory until its predictions
    end — ``levels × objects × (reps + 1)`` int64 vectors per session,
    about 23 KB at the ``repro infer`` defaults.

    Returns one plain-JSON dict per session, in input order.
    """
    workload = PopulationWorkload(design.seed, design.population)
    levels = [defense_level(name) for name in design.levels]
    pages = [
        workload.page_spec(session).object_sizes[: design.max_objects]
        for session in sessions
    ]
    groups: Dict[int, List[int]] = {}
    for position, sizes in enumerate(pages):
        groups.setdefault(len(sizes), []).append(position)
    results: List[Dict[str, object]] = [{} for _ in sessions]
    for count, positions in groups.items():
        labels = np.arange(count)
        train_labels = np.repeat(labels, design.reps)
        stack = np.empty((
            len(positions), len(levels), len(train_labels) + count,
            feature_length(design.features),
        ), dtype=np.int64)
        for slot, position in enumerate(positions):
            results[position], stack[slot] = _observe_session(
                sessions[position], pages[position], levels, design
            )
            heartbeat()
        stack = stack.reshape(-1, *stack.shape[2:])
        train_stack = stack[:, : len(train_labels)]
        victim_stack = stack[:, len(train_labels):]
        correct = [
            results[position]["levels"][level.name]["classifiers"]
            for position in positions
            for level in levels
        ]
        members = [sessions[position] for position in positions]
        for classifier_name in design.classifiers:
            models = [
                resolve_classifier(classifier_name, counter_stream_base(
                    design.seed,
                    f"infer/clf/{level.name}/s{session}/{classifier_name}",
                ))
                for session in members
                for level in levels
            ]
            kind = type(models[0])
            kind.fit_levels(models, train_stack, train_labels)
            predictions = kind.predict_levels(models, victim_stack)
            hits = np.count_nonzero(np.asarray(predictions) == labels, axis=1)
            for level_correct, hit in zip(correct, hits.tolist()):
                level_correct[classifier_name] = hit
        heartbeat()
    return results
