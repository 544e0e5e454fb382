"""Weak scaling and communication-skeleton extraction."""

import pytest

from repro.core.presets import SPHFLOW
from repro.observability import State, Tracer
from repro.runtime.calibration import calibrate_kappa
from repro.runtime.cluster import ClusterModel
from repro.runtime.machine import PIZ_DAINT, NetworkSpec
from repro.runtime.skeleton import extract_skeleton
from repro.runtime.weak_scaling import weak_scaling
from repro.runtime.workloads import build_workload


# ----------------------------------------------------------------------
# Weak scaling (the paper's "ongoing analysis work")
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_weak_scaling_square_flat_then_eroding():
    series = weak_scaling(
        SPHFLOW, "square", PIZ_DAINT,
        core_counts=(12, 24, 48, 96),
        particles_per_core=20_000,
        n_steps=1,
    )
    assert [p.cores for p in series.points] == [12, 24, 48, 96]
    # Problem size really grows with cores.
    n = [p.n_particles for p in series.points]
    assert n[-1] > 6 * n[0]
    eff = series.weak_efficiency()
    # Weak scaling holds up far better than strong scaling: even at 96
    # cores efficiency stays moderate (the erosion is the replicated
    # per-step work, which grows with the global N in this regime).
    assert eff[-1] > 0.45
    # ...but erodes monotonically-ish (collectives + halo surfaces).
    assert eff[-1] <= eff[0] + 1e-9
    report = series.report()
    assert "weak scaling" in report and "96" in report


@pytest.mark.slow
def test_weak_beats_strong_at_scale():
    """The regime claim: at equal core counts, weak efficiency >> strong."""
    from repro.runtime.scaling import strong_scaling

    wl = build_workload("square", 240_000)
    strong = strong_scaling(
        SPHFLOW, "square", PIZ_DAINT, (12, 96), workload=wl, n_steps=1
    )
    weak = weak_scaling(
        SPHFLOW, "square", PIZ_DAINT, (12, 96),
        particles_per_core=20_000, n_steps=1,
    )
    strong_eff = float(strong.parallel_efficiency()[-1])
    weak_eff = float(weak.weak_efficiency()[-1])
    assert weak_eff > strong_eff


# ----------------------------------------------------------------------
# Skeleton extraction and replay
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    wl = build_workload("square", 100_000)
    kappa = calibrate_kappa(SPHFLOW, wl)
    return ClusterModel(wl, SPHFLOW, PIZ_DAINT, 48, kappa=kappa)


def test_skeleton_reproduces_step_time(model):
    skel = extract_skeleton(model)
    original = model.simulate_step().step_time
    replayed = skel.replay(PIZ_DAINT.network)
    assert replayed == pytest.approx(original, rel=1e-9)


def test_skeleton_structure(model):
    skel = extract_skeleton(model)
    assert skel.n_ranks == 48
    assert skel.n_exchanges == model.substeps
    assert skel.n_collectives == model.substeps
    assert skel.total_bytes() > 0
    kinds = [op.kind for op in skel.ops]
    assert kinds[0] == "compute"
    assert kinds[-1] == "allreduce"


def test_skeleton_network_sweep_isolates_interconnect(model):
    """Replaying under a degraded network slows only the comm share."""
    skel = extract_skeleton(model)
    good = skel.replay(PIZ_DAINT.network)
    slow_net = NetworkSpec(
        name="degraded", latency=100e-6, bandwidth=1e8, topology="fat-tree"
    )
    bad = skel.replay(slow_net)
    assert bad > good
    # Compute time is identical, so the delta is pure network.
    free_net = NetworkSpec(
        name="infinite", latency=1e-300, bandwidth=1e300, topology="fat-tree"
    )
    compute_only = skel.replay(free_net)
    assert compute_only < good
    assert bad - compute_only > good - compute_only


def test_skeleton_replay_traces_states(model):
    skel = extract_skeleton(model)
    tracer = Tracer()
    skel.replay(PIZ_DAINT.network, tracer)
    states = {e.state for e in tracer.events}
    assert State.USEFUL in states and State.MPI in states


def test_skeleton_handles_rungs():
    """Multi-rung (ChaNGa/Evrard) skeletons carry per-substep structure."""
    from repro.core.presets import CHANGA

    wl = build_workload("evrard", 60_000)
    model = ClusterModel(wl, CHANGA, PIZ_DAINT, 48, kappa=1e-8)
    assert model.substeps > 1
    skel = extract_skeleton(model)
    assert skel.n_exchanges == model.substeps
    assert skel.replay(PIZ_DAINT.network) == pytest.approx(
        model.simulate_step().step_time, rel=1e-9
    )
