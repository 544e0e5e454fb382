"""Load balancing: self-scheduling, comm overlap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.overlap import local_inner_outer
from repro.model.selfsched import (
    SCHEMES,
    chunk_sequence,
    simulate_self_scheduling,
)


# ----------------------------------------------------------------------
# Chunk sequences
# ----------------------------------------------------------------------
@given(
    n=st.integers(0, 5000),
    p=st.integers(1, 64),
    scheme=st.sampled_from(SCHEMES[:-1]),  # awf handled by the simulator
)
@settings(max_examples=80, deadline=None)
def test_chunks_cover_all_iterations_property(n, p, scheme):
    chunks = chunk_sequence(n, p, scheme)
    assert sum(chunks) == n
    assert all(c > 0 for c in chunks)


def test_scheme_shapes():
    assert chunk_sequence(100, 4, "ss") == [1] * 100
    assert chunk_sequence(100, 4, "static") == [25] * 4
    assert chunk_sequence(100, 4, "css", css_chunk=30) == [30, 30, 30, 10]
    gss = chunk_sequence(100, 4, "gss")
    assert gss[0] == 25 and all(a >= b for a, b in zip(gss, gss[1:]))
    fac = chunk_sequence(128, 4, "fac2")
    # factoring: first batch of 4 chunks covers half the work
    assert fac[:4] == [16, 16, 16, 16]


def test_chunk_errors():
    with pytest.raises(ValueError, match="unknown scheme"):
        chunk_sequence(10, 2, "magic")
    with pytest.raises(ValueError, match="n_tasks"):
        chunk_sequence(-1, 2, "ss")


# ----------------------------------------------------------------------
# Self-scheduling simulation
# ----------------------------------------------------------------------
def test_uniform_tasks_all_schemes_near_optimal(rng):
    times = np.full(1000, 1.0)
    for scheme in ("static", "ss", "gss", "fac2"):
        res = simulate_self_scheduling(times, 8, scheme)
        assert res.makespan == pytest.approx(1000 / 8, rel=0.05), scheme
        assert res.load_balance > 0.95


def test_dynamic_beats_static_on_skewed_tasks(rng):
    # Work concentrated in the first half: static chunking starves
    # the later workers.
    times = np.concatenate([np.full(500, 10.0), np.full(500, 1.0)])
    static = simulate_self_scheduling(times, 8, "static")
    fac = simulate_self_scheduling(times, 8, "fac2")
    assert fac.makespan < 0.8 * static.makespan
    assert fac.load_balance > static.load_balance


def test_overhead_penalizes_fine_chunks(rng):
    times = rng.uniform(0.5, 1.5, 2000)
    ss = simulate_self_scheduling(times, 8, "ss", dispatch_overhead=0.1)
    fac = simulate_self_scheduling(times, 8, "fac2", dispatch_overhead=0.1)
    assert fac.makespan < ss.makespan
    assert fac.n_chunks < ss.n_chunks
    assert ss.overhead_total == pytest.approx(0.1 * ss.n_chunks)


def test_awf_adapts_to_heterogeneous_workers(rng):
    times = np.full(2000, 1.0)
    speeds = np.array([2.0, 1.0, 1.0, 0.5])
    awf = simulate_self_scheduling(times, 4, "awf", worker_speeds=speeds)
    static = simulate_self_scheduling(times, 4, "static", worker_speeds=speeds)
    assert awf.makespan < static.makespan
    assert awf.efficiency > static.efficiency


def test_invalid_task_times():
    with pytest.raises(ValueError, match="non-negative"):
        simulate_self_scheduling([-1.0], 2, "ss")
    with pytest.raises(ValueError, match="worker_speeds"):
        simulate_self_scheduling([1.0], 2, "ss", worker_speeds=[1.0, -1.0])


@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.integers(1, 16),
    scheme=st.sampled_from(SCHEMES),
)
@settings(max_examples=40, deadline=None)
def test_all_work_executed_property(seed, p, scheme):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 2.0, 200)
    res = simulate_self_scheduling(times, p, scheme)
    assert res.busy.sum() == pytest.approx(times.sum(), rel=1e-9)
    assert res.makespan >= times.sum() / p - 1e-9


# ----------------------------------------------------------------------
# Local-inner-outer overlap
# ----------------------------------------------------------------------
def test_overlap_hides_communication():
    inner = np.array([10.0, 10.0])
    outer = np.array([2.0, 2.0])
    comm = np.array([5.0, 8.0])
    t = local_inner_outer(inner, outer, comm)
    assert np.allclose(t.overlapped, [12.0, 12.0])  # comm fully hidden
    assert np.allclose(t.sequential, [17.0, 20.0])
    assert np.all(t.saving() == comm)


def test_overlap_bounded_by_comm_when_comm_dominates():
    inner = np.array([1.0])
    outer = np.array([0.5])
    comm = np.array([10.0])
    t = local_inner_outer(inner, outer, comm)
    assert t.overlapped[0] == pytest.approx(10.5)
    assert t.saving()[0] == pytest.approx(1.0)  # only the inner part hides


def test_overlap_validation():
    with pytest.raises(ValueError, match="align"):
        local_inner_outer(np.ones(2), np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="non-negative"):
        local_inner_outer(np.array([-1.0]), np.ones(1), np.ones(1))
