"""Vectorized backend: scalar/vector equivalence and backend scope.

Hypothesis drives random :class:`PageSpec`s (including shapes the zipf
population never generates, like zero-object pages) through both the
scalar :func:`~repro.campaign.engine.evaluate_page_analytic` and the
numpy :func:`~repro.fastpath.analytic.evaluate_pages_analytic` and
demands identical fold kwargs, value for value.  The backend is scoped
to those numpy kernels: packet-level trials run the same simulator
code under either backend, down to the profiler's event counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.engine import AnalyticModel, evaluate_page_analytic
from repro.fastpath import (
    BACKEND_ENV,
    fast_backend_active,
    resolve_backend,
)
from repro.fastpath.analytic import (
    counter_seeds,
    evaluate_pages_analytic,
    evaluate_shard_analytic,
    generate_pages,
)
from repro.simkernel.randomstream import (
    CounterStream,
    counter_stream_seed,
)
from repro.web.workload import PageSpec, PopulationConfig, PopulationWorkload


# -- Backend resolution --------------------------------------------------


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == "python"
    assert not fast_backend_active()
    monkeypatch.setenv(BACKEND_ENV, "fast")
    assert resolve_backend() == "fast"
    assert fast_backend_active()
    # An explicit argument wins over the environment.
    assert resolve_backend("python") == "python"
    assert resolve_backend(" Fast ") == "fast"
    with pytest.raises(ValueError, match="hyperdrive"):
        resolve_backend("hyperdrive")


# -- Scalar vs. vector analytic equivalence ------------------------------


MODELS = [
    AnalyticModel(),
    AnalyticModel(record_miscount_rate=1.0, noise_bytes=0),
    AnalyticModel(tolerance_abs=0, tolerance_rel=0.0, serialize_slope=0.1),
]

page_specs = st.builds(
    PageSpec,
    session=st.integers(0, 2**20),
    object_sizes=st.tuples() | st.lists(
        st.integers(1, 5_000_000), min_size=1, max_size=12
    ).map(tuple),
    target_size=st.integers(1, 5_000_000),
)


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(page_specs, min_size=1, max_size=6),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=6, max_size=6),
    model=st.sampled_from(MODELS),
)
def test_evaluate_pages_analytic_matches_scalar(specs, seeds, model):
    seeds = seeds[: len(specs)]
    batch = evaluate_pages_analytic(specs, seeds, model)
    for spec, seed, fold in zip(specs, seeds, batch):
        expected = evaluate_page_analytic(spec, CounterStream(seed), model)
        assert fold == expected, spec


def test_generate_pages_matches_page_spec():
    workload = PopulationWorkload(seed=123)
    start, stop = 40, 300
    pages = generate_pages(workload, start, stop)
    cursor = 0
    for row, session in enumerate(range(start, stop)):
        spec = workload.page_spec(session)
        count = int(pages["counts"][row])
        assert count == spec.object_count
        flat = pages["sizes"][cursor:cursor + count]
        assert tuple(int(size) for size in flat) == spec.object_sizes
        assert (pages["session_of"][cursor:cursor + count] == row).all()
        assert int(pages["targets"][row]) == spec.target_size
        cursor += count
    assert cursor == len(pages["sizes"])


def test_evaluate_shard_analytic_matches_scalar_fold():
    config = PopulationConfig(min_objects=1, max_objects=8)
    workload = PopulationWorkload(seed=77, config=config)
    model = AnalyticModel()
    fast = evaluate_shard_analytic(workload, 0, 500, model)

    from repro.campaign.columnar import ColumnarSummary

    scalar = ColumnarSummary()
    for session in range(500):
        spec = workload.page_spec(session)
        stream = workload.analytic_stream(session)
        scalar.fold_session(**evaluate_page_analytic(spec, stream, model))
    assert fast.to_json() == scalar.to_json()


def test_counter_stream_seed_vectorization():
    import numpy as np

    base = 0x1234_5678_9ABC_DEF0
    indices = np.arange(0, 64, dtype=np.uint64)
    vector = counter_seeds(base, indices)
    for index in range(64):
        assert int(vector[index]) == counter_stream_seed(base, index)


# -- Backend scope -------------------------------------------------------


def test_packet_trials_are_backend_invariant(monkeypatch):
    from repro.experiments.hotpath import profile_reference

    counters = {}
    for backend in ("python", "fast"):
        monkeypatch.setenv(BACKEND_ENV, backend)
        profiler, _ = profile_reference()
        counters[backend] = {
            # HPACK cache hit counts depend on what earlier trials in
            # this process warmed, not on the backend.
            name: value
            for name, value in profiler.snapshot()["counters"].items()
            if not name.startswith("hpack.")
        }
    assert counters["fast"] == counters["python"]
    assert counters["python"]["sim.events"] > 0
