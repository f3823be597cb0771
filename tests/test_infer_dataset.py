"""The batched observation model against the per-observation loop.

:func:`repro.infer.dataset.observe` builds every observation of one
(session, level) as one batch, with the per-record timing draws
computed as arrays at their closed-form counter indices.  The loop it
replaced is kept here as the reference: Hypothesis drives random timing
knobs, every defense level, both roles and pages with 1-chunk and
500-record objects through both, and demands the identical
``(time, length)`` sequence and draw count for every observation.
"""

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.predictor import RECORD_OVERHEAD
from repro.infer.dataset import (
    StudyDesign,
    base_plaintext_records,
    defended_wire_records,
    observation_stream,
    observe,
)
from repro.infer.defenses import DEFENSE_LEVELS, DefenseConfig
from repro.simkernel.randomstream import CounterStream


def reference_observe(
    index: int,
    object_records: Sequence[Tuple[int, ...]],
    level: DefenseConfig,
    design: StudyDesign,
    stream: CounterStream,
) -> List[Tuple[int, int]]:
    """One observation, drawn one counter tick at a time."""
    lengths = list(object_records[index])
    chaff_wire = level.chaff_record_plaintext + RECORD_OVERHEAD
    for _ in range(level.chaff_records):
        position = stream.randint(0, len(lengths))
        lengths.insert(position, chaff_wire)
    others = len(object_records) - 1
    if not level.pipeline and others > 0:
        inserts = stream.randint(0, design.mux_max_inserts)
        for _ in range(inserts):
            pick = stream.randint(0, others - 1)
            other = pick if pick < index else pick + 1
            foreign = object_records[other]
            record = foreign[stream.randint(0, len(foreign) - 1)]
            position = stream.randint(0, len(lengths))
            lengths.insert(position, record)
    now = 0
    observation = []
    for length in lengths:
        gap = design.gap_base_us + stream.randint(0, design.gap_jitter_us)
        if stream.randint(0, design.pause_one_in - 1) == 0:
            gap += design.pause_us
        now += gap
        observation.append((now, length))
    return observation


@st.composite
def pages(draw):
    """(chunk_bytes, body sizes): a 1-chunk and a 500+-chunk object."""
    chunk = draw(st.integers(16, 4096))

    def body(chunks):
        return (chunks - 1) * chunk + draw(st.integers(1, chunk))

    bodies = [body(1), body(draw(st.integers(500, 520)))]
    bodies += [body(draw(st.integers(1, 40))) for _ in range(draw(st.integers(0, 3)))]
    return chunk, draw(st.permutations(bodies))


KNOBS = st.fixed_dictionaries({
    "gap_base_us": st.integers(0, 5_000),
    "gap_jitter_us": st.just(0) | st.integers(0, 5_000),
    "pause_one_in": st.just(1) | st.integers(1, 50),
    "pause_us": st.integers(0, 20_000),
    "mux_max_inserts": st.integers(0, 6),
    "reps": st.integers(1, 3),
    "seed": st.integers(-(2**63), 2**64),
})


@settings(max_examples=60, deadline=None)
@given(
    page=pages(),
    knobs=KNOBS,
    level=st.sampled_from(DEFENSE_LEVELS),
    role=st.sampled_from(["train", "victim"]),
    session=st.integers(0, 10_000),
)
@example(
    page=(64, [100]),  # a lone object: nothing to contaminate with
    knobs={"gap_base_us": 0, "gap_jitter_us": 0, "pause_one_in": 1,
           "pause_us": 7, "mux_max_inserts": 4, "reps": 2, "seed": 5},
    level=DEFENSE_LEVELS[0], role="train", session=0,
)
@example(
    page=(512, [100, 3000, 700, 9000]),  # pipelined chaff: no contamination
    knobs={"gap_base_us": 400, "gap_jitter_us": 300, "pause_one_in": 20,
           "pause_us": 8000, "mux_max_inserts": 4, "reps": 3, "seed": 2020},
    level=DEFENSE_LEVELS[4], role="victim", session=17,
)
@example(
    page=(256, [1000, 50, 4000]),  # an insert count that is always 0
    knobs={"gap_base_us": 400, "gap_jitter_us": 300, "pause_one_in": 20,
           "pause_us": 8000, "mux_max_inserts": 0, "reps": 2, "seed": 11},
    level=DEFENSE_LEVELS[3], role="train", session=3,
)
@example(
    page=(4096, [1, 4096, 2500, 17]),  # one DATA record per object
    knobs={"gap_base_us": 400, "gap_jitter_us": 300, "pause_one_in": 20,
           "pause_us": 8000, "mux_max_inserts": 6, "reps": 3, "seed": 7},
    level=DEFENSE_LEVELS[3], role="train", session=42,
)
def test_batched_observe_matches_scalar_loop(page, knobs, level, role, session):
    chunk, bodies = page
    design = StudyDesign(chunk_bytes=chunk, **knobs)
    defended = [
        defended_wire_records(base_plaintext_records(body, chunk), level)
        for body in bodies
    ]
    keys = [(obj, rep) for obj in range(len(bodies)) for rep in range(design.reps)]

    def stream(obj, rep):
        return observation_stream(design, role, level, session, obj, rep)

    streams = [stream(obj, rep) for obj, rep in keys]
    batch = observe([obj for obj, _ in keys], streams, defended, level, design)
    assert batch.times.dtype == batch.lengths.dtype == np.int64
    assert int(batch.counts.sum()) == len(batch.times) == len(batch.lengths)

    cuts = np.cumsum(batch.counts)[:-1]
    observed = zip(np.split(batch.times, cuts), np.split(batch.lengths, cuts))
    for (obj, rep), batched_stream, (times, lengths) in zip(keys, streams, observed):
        reference_stream = stream(obj, rep)
        expected = reference_observe(obj, defended, level, design, reference_stream)
        assert list(zip(times.tolist(), lengths.tolist())) == expected
        # The batch leaves each stream before its 2-per-record timing draws.
        assert (
            batched_stream.position + 2 * len(expected)
            == reference_stream.position
        )


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(st.integers(0, 40) | st.integers(0, 16_384), max_size=40),
    level=st.sampled_from(DEFENSE_LEVELS),
)
def test_defended_wire_records_pads_every_record(records, level):
    # Each distinct length is padded once; repeats must read the same.
    assert defended_wire_records(tuple(records), level) == tuple(
        level.pad(plaintext) + RECORD_OVERHEAD for plaintext in records
    )


@pytest.mark.parametrize(
    "knob", ["gap_base_us", "gap_jitter_us", "pause_us", "mux_max_inserts"]
)
def test_study_design_rejects_negative_timing_knobs(knob):
    # A negative gap would make timestamps decrease; a negative jitter
    # or insert ceiling is an empty draw range.
    with pytest.raises(ValueError, match=knob):
        StudyDesign(**{knob: -1})


@pytest.mark.parametrize("axes, message", [
    ({"levels": ()}, "at least one defense level"),
    ({"levels": ("off", "off")}, "repeated defense level name.*off"),
    ({"levels": ("pad1k", "off", "pad1k")}, "repeated defense level name.*pad1k"),
    ({"classifiers": ("exact", "knn", "exact")}, "repeated classifier name.*exact"),
])
def test_study_design_rejects_empty_or_repeated_axes(axes, message):
    # Summaries key counters by name, so a repeated name would count
    # one cell once per repeat (accuracy above 100 %).
    with pytest.raises(ValueError, match=message):
        StudyDesign(**axes)
