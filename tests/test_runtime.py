"""The cluster model: machines, comm layer, cost model, code rows, cluster."""

import numpy as np
import pytest

from repro.core.presets import CHANGA, SPHFLOW, SPHYNX
from repro.model.calibration import PAPER_ANCHORS_12CORES, calibrate_kappa
from repro.model.cluster import ClusterModel
from repro.model.codes import CODES
from repro.model.comm import SimComm
from repro.model.cost_model import (
    GRAVITY_ORDER_MULT,
    PhaseWeights,
    particle_work_units,
)
from repro.model.machine import MARENOSTRUM4, PIZ_DAINT, NetworkSpec
from repro.model.scaling import format_scaling_table, strong_scaling
from repro.model.workloads import build_workload
from repro.observability import State, Tracer


# ----------------------------------------------------------------------
# Machine / network models
# ----------------------------------------------------------------------
def test_machine_specs_match_paper():
    assert PIZ_DAINT.cores_per_node == 12
    assert MARENOSTRUM4.cores_per_node == 48
    assert PIZ_DAINT.network.topology == "dragonfly"
    assert MARENOSTRUM4.network.topology == "fat-tree"
    assert PIZ_DAINT.max_nodes == 5320
    assert MARENOSTRUM4.max_nodes == 3456


def test_transfer_time_model():
    net = NetworkSpec("t", latency=1e-6, bandwidth=1e9, topology="fat-tree")
    assert net.transfer_time(0) == pytest.approx(1e-6)
    assert net.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)
    assert net.transfer_time(1e6, n_messages=10) == pytest.approx(1e-5 + 1e-3)
    with pytest.raises(ValueError):
        net.transfer_time(-1)


def test_collective_scales_logarithmically():
    net = NetworkSpec("t", latency=1e-6, bandwidth=1e9, topology="fat-tree")
    assert net.collective_time(1) == 0.0
    t2 = net.collective_time(2)
    t1024 = net.collective_time(1024)
    assert t1024 == pytest.approx(10 * t2)


def test_nodes_for_cores():
    assert PIZ_DAINT.nodes_for_cores(12) == 1
    assert PIZ_DAINT.nodes_for_cores(13) == 2
    with pytest.raises(ValueError, match="nodes"):
        PIZ_DAINT.nodes_for_cores(12 * 6000)


# ----------------------------------------------------------------------
# SimComm
# ----------------------------------------------------------------------
@pytest.fixture
def comm():
    net = NetworkSpec("t", latency=1e-5, bandwidth=1e9, topology="fat-tree")
    return SimComm(4, net)


def test_allreduce_values_and_sync(comm):
    vals = [np.array([float(r)]) for r in range(4)]
    comm.compute(2, 1.0, "E")  # rank 2 is the straggler
    out = comm.allreduce(vals, op="sum")
    assert out[0] == pytest.approx(6.0)
    # Collective synchronizes clocks at the straggler + collective time.
    assert np.allclose(comm.clocks, comm.clocks[0])
    assert comm.clocks[0] > 1.0


def test_allreduce_min_max(comm):
    vals = [np.array([float(r)]) for r in range(4)]
    assert comm.allreduce(vals, op="min")[0] == 0.0
    assert comm.allreduce(vals, op="max")[0] == 3.0
    with pytest.raises(ValueError, match="op"):
        comm.allreduce(vals, op="mean")


def test_compute_records_useful_time(comm):
    comm.compute(1, 0.5, "G")
    assert comm.tracer.time_in_state(1, State.USEFUL) == pytest.approx(0.5)
    assert comm.clocks[1] == pytest.approx(0.5)


def test_exchange_bytes_accounting(comm):
    recv = np.zeros((4, 4))
    recv[1, 0] = 8000.0
    t = comm.exchange_bytes(recv)
    assert t[0] > 0 and t[1] > 0 and t[2] == 0.0
    # Sender and receiver of the one message pay the same wire cost here.
    assert t[0] == pytest.approx(t[1])
    with pytest.raises(ValueError):
        comm.exchange_bytes(np.zeros((3, 3)))


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_work_units_cover_all_phases():
    units = particle_work_units(
        PhaseWeights(),
        mean_neighbors=100,
        n_total=10_000,
        density_factor=np.ones(50),
        use_iad=True,
        generalized_ve=True,
        gravity_order=2,
    )
    assert set(units) == set("ABCDEFGHIJ")
    for k, v in units.items():
        assert v.shape == (50,)
        assert np.all(v >= 0)
    assert np.all(units["D"] > 0)
    assert np.all(units["I"] > 0)


def test_work_units_switches():
    base = dict(
        mean_neighbors=100,
        n_total=10_000,
        density_factor=np.ones(10),
    )
    u1 = particle_work_units(PhaseWeights(), use_iad=False, generalized_ve=False,
                             gravity_order=None, **base)
    assert np.all(u1["D"] == 0) and np.all(u1["I"] == 0)
    u2 = particle_work_units(PhaseWeights(), use_iad=False, generalized_ve=True,
                             gravity_order=None, **base)
    assert np.all(u2["E"] > u1["E"])


def test_gravity_order_multipliers_monotone():
    assert (
        GRAVITY_ORDER_MULT[0]
        < GRAVITY_ORDER_MULT[2]
        < GRAVITY_ORDER_MULT[3]
        < GRAVITY_ORDER_MULT[4]
    )


def test_gravity_density_boost():
    dens = np.array([0.1, 1.0, 10.0])
    u = particle_work_units(
        PhaseWeights(), mean_neighbors=100, n_total=1000,
        density_factor=dens, use_iad=False, generalized_ve=False, gravity_order=2,
    )
    assert u["I"][2] > u["I"][1] > u["I"][0]


# ----------------------------------------------------------------------
# Cluster model and scaling
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_square():
    return build_workload("square", 50_000)


@pytest.fixture(scope="module")
def small_evrard():
    return build_workload("evrard", 50_000)


def test_rank_layout_hybrid_vs_pure_mpi(small_square):
    hy = ClusterModel(small_square, SPHYNX, PIZ_DAINT, 48)
    assert hy.threads_per_rank == 12 and hy.n_ranks == 4
    mpi = ClusterModel(small_square, SPHFLOW, PIZ_DAINT, 48)
    assert mpi.threads_per_rank == 1 and mpi.n_ranks == 48


def test_code_rows_validate_and_an_explicit_row_overrides_the_lookup(small_square):
    with pytest.raises(ValueError, match="load_balancing"):
        CODES["SPH-EXA"].with_(load_balancing="magic")
    with pytest.raises(ValueError, match="no code row"):
        ClusterModel(small_square, SPHYNX.with_(label="NotACode"), PIZ_DAINT, 48)
    pure_mpi = CODES["SPHYNX"].with_(hybrid=False)
    assert ClusterModel(small_square, SPHYNX, PIZ_DAINT, 48, code=pure_mpi).n_ranks == 48


def test_step_time_decreases_with_cores(small_square):
    times = []
    for cores in (12, 48, 192):
        m = ClusterModel(small_square, SPHYNX, PIZ_DAINT, cores, kappa=1e-7)
        times.append(m.simulate_step().step_time)
    assert times[0] > times[1] > times[2]


def test_changa_evrard_uses_rungs(small_evrard, small_square):
    me = ClusterModel(small_evrard, CHANGA, PIZ_DAINT, 48)
    assert me.substeps > 1
    ms = ClusterModel(small_square, CHANGA, PIZ_DAINT, 48)
    assert ms.substeps == 1  # uniform density: single rung


def test_gravity_only_for_gravity_tests(small_square, small_evrard):
    assert ClusterModel(small_square, SPHYNX, PIZ_DAINT, 24).gravity_order is None
    assert ClusterModel(small_evrard, SPHYNX, PIZ_DAINT, 24).gravity_order == 2
    assert ClusterModel(small_evrard, CHANGA, PIZ_DAINT, 24).gravity_order == 4


def test_trace_contains_phases_and_mpi(small_square):
    tracer = Tracer()
    m = ClusterModel(small_square, SPHFLOW, PIZ_DAINT, 24, kappa=1e-7, tracer=tracer)
    m.simulate_step()
    letters = set(tracer.phase_letters())
    assert {"A", "B", "E", "F", "G", "J"} <= letters
    assert any(e.state is State.MPI for e in tracer.events)


def test_calibration_hits_anchor(small_square):
    kappa = calibrate_kappa(SPHFLOW, small_square)
    m = ClusterModel(small_square, SPHFLOW, PIZ_DAINT, 12, kappa=kappa)
    t = m.average_step_time()
    assert t == pytest.approx(PAPER_ANCHORS_12CORES[("SPH-flow", "square")], rel=1e-6)


def test_calibration_unknown_pair(small_square):
    bogus = SPHFLOW.with_(label="NotACode")
    with pytest.raises(ValueError, match="anchor"):
        calibrate_kappa(bogus, small_square)


def test_strong_scaling_series(small_square):
    s = strong_scaling(
        SPHFLOW, "square", PIZ_DAINT, core_counts=(12, 48, 192),
        workload=small_square, n_steps=1,
    )
    assert [p.cores for p in s.points] == [12, 48, 192]
    t = s.times()
    assert np.all(np.diff(t) < 0)  # still scaling at these sizes
    eff = s.parallel_efficiency()
    assert eff[0] == pytest.approx(1.0)
    assert np.all(np.diff(eff) < 0)  # efficiency decreases with scale
    assert s.points[-1].particles_per_core == pytest.approx(small_square.n / 192)
    table = format_scaling_table([s])
    assert "cores" in table and "12" in table


def test_pop_load_balance_declines_with_scale(small_square):
    s = strong_scaling(
        SPHYNX, "square", PIZ_DAINT, core_counts=(24, 384),
        workload=small_square, n_steps=1,
    )
    lb = [p.pop.load_balance for p in s.points]
    assert lb[1] <= lb[0] + 1e-9


def test_workload_validation():
    with pytest.raises(ValueError, match="unknown test"):
        build_workload("kelvin-helmholtz")


def test_workload_properties(small_square, small_evrard):
    assert small_square.box.periodic.tolist() == [False, False, True]
    assert not small_evrard.has_gravity_source is True or small_evrard.has_gravity_source
    assert small_evrard.density_factor.max() > 10 * small_evrard.density_factor.min()
    assert small_square.support > 0
