"""Feature extraction: layout, invariance properties, scalar vs vector.

The extractor's two load-bearing claims are pinned here with
Hypothesis:

* the *invariant prefix* of the feature vector depends only on the
  multiset of record lengths — permuting which length arrives at which
  timestamp cannot change it;
* the numpy batch kernel the study runs
  (:func:`~repro.infer.features.extract_features_auto`) and the scalar
  reference :func:`~repro.infer.features.extract_features` produce
  identical integers for every observation batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer.features import (
    FeatureConfig,
    ObservationBatch,
    capture_record_sequence,
    extract_features,
    extract_features_auto,
    feature_length,
    invariant_prefix_length,
    observed_record_lengths,
)
from repro.netsim.capture import CaptureLog, Direction, PacketRecord


def pack(observations):
    """A list of ``(time, length)`` observations in segment form."""
    return ObservationBatch(
        times=np.array([t for obs in observations for t, _ in obs], dtype=np.int64),
        lengths=np.array([l for obs in observations for _, l in obs], dtype=np.int64),
        counts=np.array([len(obs) for obs in observations], dtype=np.int64),
    )


def extract_features_batch(observations, config):
    """The batch kernel over a list of observations, rows as tuples."""
    matrix = extract_features_auto(pack(observations), config)
    return [tuple(row) for row in matrix.tolist()]


# -- strategies ----------------------------------------------------------

def observations(min_records=1, max_records=40):
    """Time-ordered (time_us, wire_length) observations."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20_000),
            st.integers(min_value=29, max_value=18_000),
        ),
        min_size=min_records,
        max_size=max_records,
    ).map(
        # Cumulative gaps -> sorted times; keeps arbitrary gap shapes.
        lambda pairs: tuple(
            (sum(gap for gap, _ in pairs[: i + 1]), length)
            for i, (_, length) in enumerate(pairs)
        )
    )


CONFIGS = st.builds(
    FeatureConfig,
    hist_bin_bytes=st.integers(min_value=64, max_value=4096),
    hist_bins=st.integers(min_value=1, max_value=20),
    curve_points=st.integers(min_value=1, max_value=12),
    burst_gap_us=st.integers(min_value=1, max_value=5_000),
)


# -- layout and scalar basics --------------------------------------------

def test_feature_vector_layout_pinned():
    config = FeatureConfig(hist_bin_bytes=100, hist_bins=3, curve_points=2,
                           burst_gap_us=1000)
    obs = ((0, 120), (400, 250), (2400, 120))
    features = extract_features(obs, config)
    assert len(features) == feature_length(config)
    assert features[: invariant_prefix_length(config)] == (
        3, 490, 120, 250,  # count, total, min, max
        0, 2, 1,           # histogram: [0,100), [100,200), [200,..)
    )
    assert features[7:9] == (120, 120)          # first, last length
    assert features[9:11] == (370, 490)         # curve at ceil(n*k/2)
    assert features[11:14] == (2, 370, 2)       # bursts: split at gap 2000
    assert features[14:] == (2400, 2000, 1)     # ia sum, max, over-count


def test_empty_observation_rejected():
    with pytest.raises(ValueError, match="empty observation"):
        extract_features((), FeatureConfig())
    with pytest.raises(ValueError, match="empty observation"):
        extract_features_batch([((0, 100),), ()], FeatureConfig())


def test_all_features_are_plain_ints():
    config = FeatureConfig()
    features = extract_features(((0, 100), (5, 200)), config)
    assert all(type(value) is int for value in features)
    # The batch kernel hands the classifiers one int64 matrix.
    matrix = extract_features_auto(pack([((0, 100), (5, 200)), ((0, 326),)]), config)
    assert matrix.dtype == np.int64
    assert matrix.shape == (2, feature_length(config))
    assert extract_features_auto(pack([]), config).shape == (0, feature_length(config))


# -- permutation invariance (Hypothesis) ---------------------------------

@settings(max_examples=120, deadline=None)
@given(obs=observations(), config=CONFIGS, seed=st.integers(0, 2**32 - 1))
def test_invariant_prefix_is_permutation_stable(obs, config, seed):
    import random

    lengths = [length for _, length in obs]
    random.Random(seed).shuffle(lengths)
    permuted = tuple(
        (time, length) for (time, _), length in zip(obs, lengths)
    )
    prefix = invariant_prefix_length(config)
    assert (
        extract_features(obs, config)[:prefix]
        == extract_features(permuted, config)[:prefix]
    )


# -- scalar vs vector equivalence (Hypothesis) ---------------------------

@settings(max_examples=120, deadline=None)
@given(
    batch=st.lists(observations(), min_size=0, max_size=8),
    config=CONFIGS,
)
def test_vector_kernel_matches_scalar_exactly(batch, config):
    scalar = [extract_features(obs, config) for obs in batch]
    vector = extract_features_batch(batch, config)
    assert vector == scalar


# -- capture adapters ----------------------------------------------------

def _packet(time, direction, content_types, lengths, dropped=False):
    return PacketRecord(
        time=time, direction=direction, packet_id=1,
        wire_size=sum(lengths) + 40, payload_bytes=sum(lengths),
        flags=("ACK",), seq=0, ack=0,
        tls_content_types=tuple(content_types),
        tls_record_lengths=tuple(lengths),
        dropped_by_adversary=dropped,
    )


def test_capture_record_sequence_filters_and_scales():
    capture = CaptureLog()
    s2c = Direction.SERVER_TO_CLIENT
    capture.append(_packet(0.001, s2c, (22, 23), (90, 120)))
    capture.append(_packet(0.002, Direction.CLIENT_TO_SERVER, (23,), (64,)))
    capture.append(_packet(0.003, s2c, (23, 23), (2086, 326)))
    capture.append(_packet(0.004, s2c, (23,), (999,), dropped=True))
    sequence = capture_record_sequence(capture, s2c)
    # Handshake record (type 22), c2s traffic and dropped packets are
    # all excluded; times are integer microseconds.
    assert sequence == [(1000, 120), (3000, 2086), (3000, 326)]
    assert observed_record_lengths(capture, s2c) == (120, 2086, 326)
    assert capture.record_length_sequence(s2c) == [
        (0.001, 120), (0.003, 2086), (0.003, 326)
    ]
