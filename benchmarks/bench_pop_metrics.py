"""Section 5.2 — POP efficiency metrics across scales.

"While the communication efficiency and computation scalability are close
to ideal, the measured global efficiency steadily decreases from 48 cores
to 192 cores.  Most of the efficiency loss comes from an increased load
imbalance."  This bench computes the POP hierarchy from the modeled
SPHYNX traces at 12..384 cores and asserts exactly that reading, through
:func:`repro.observability.pop_from_events` — the one POP function, which
the measured-run bench below applies to a real threaded execution.
"""

from repro.core.presets import SPHYNX
from repro.io.reporting import format_table
from repro.observability import Tracer, pop_from_events
from repro.runtime.calibration import calibrate_kappa
from repro.runtime.cluster import ClusterModel
from repro.runtime.machine import PIZ_DAINT

CORES = (12, 24, 48, 96, 192, 384)


def _metrics_sweep(evrard_workload):
    kappa = calibrate_kappa(SPHYNX, evrard_workload)
    out = []
    ref_useful = None
    for cores in CORES:
        tracer = Tracer()
        model = ClusterModel(
            evrard_workload, SPHYNX, PIZ_DAINT, cores, kappa=kappa, tracer=tracer
        )
        model.simulate_step()
        m = pop_from_events(tracer, reference_useful_total=ref_useful)
        if ref_useful is None:
            ref_useful = m.total_useful
            m = pop_from_events(tracer, reference_useful_total=ref_useful)
        out.append((cores, m))
    return out


def test_pop_efficiency_hierarchy(benchmark, report, evrard_workload):
    sweep = benchmark.pedantic(
        lambda: _metrics_sweep(evrard_workload), rounds=1, iterations=1
    )
    rows = [
        [
            cores,
            f"{m.load_balance:.3f}",
            f"{m.communication_efficiency:.3f}",
            f"{m.parallel_efficiency:.3f}",
            f"{m.computation_scalability:.3f}",
            f"{m.global_efficiency:.3f}",
        ]
        for cores, m in sweep
    ]
    table = format_table(
        ["cores", "Load Balance", "Comm Eff", "Parallel Eff", "Comp Scal",
         "Global Eff"],
        rows,
        title="POP efficiency metrics, SPHYNX / Evrard on Piz Daint (modeled)",
    )
    report("pop_metrics", table)

    by_cores = dict(sweep)
    # Communication efficiency close to ideal at every scale.
    for cores, m in sweep:
        assert m.communication_efficiency > 0.85
    # Computation scalability near-ideal at the start of the paper's
    # 48->192 window (it erodes at scale as ghost processing grows —
    # faster at reduced REPRO_BENCH_N, where subdomains are smaller).
    assert by_cores[48].computation_scalability > 0.55
    # Global efficiency steadily decreases from 48 to 192 cores...
    assert (
        by_cores[48].global_efficiency
        > by_cores[96].global_efficiency
        > by_cores[192].global_efficiency
    )
    # ...with load balance the dominant loss term at 192 cores.
    m192 = by_cores[192]
    lb_loss = 1.0 - m192.load_balance
    comm_loss = 1.0 - m192.communication_efficiency
    assert lb_loss > comm_loss


def test_pop_metrics_benchmark(benchmark, evrard_workload):
    kappa = calibrate_kappa(SPHYNX, evrard_workload)

    def run():
        tracer = Tracer()
        model = ClusterModel(
            evrard_workload, SPHYNX, PIZ_DAINT, 192, kappa=kappa, tracer=tracer
        )
        model.simulate_step()
        return pop_from_events(tracer).global_efficiency

    eff = benchmark(run)
    assert 0.0 < eff <= 1.0


# ----------------------------------------------------------------------
# The same function on a real execution's merged spans.
# ----------------------------------------------------------------------
def test_pop_from_measured_pool_run(report):
    """POP hierarchy of a real 4-thread execution's merged spans."""
    from repro.core.config import ExecConfig, RunConfig, SimulationConfig
    from repro.core.simulation import Simulation
    from repro.ics.square_patch import SquarePatchConfig, make_square_patch
    from repro.timestepping.steppers import TimestepParams

    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=14, layers=8)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    with Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=4)),
    ) as sim:
        sim.run(n_steps=3)
        m = pop_from_events(sim.tracer)

    assert m.valid
    assert m.n_ranks == 5  # driver row + 4 thread-lane rows
    assert 0.0 < m.load_balance <= 1.0 + 1e-9
    assert 0.0 < m.communication_efficiency <= 1.0 + 1e-9
    assert 0.0 < m.parallel_efficiency <= 1.0 + 1e-9
    report(
        "pop_measured_pool",
        "POP metrics from a measured 4-thread run "
        f"(square patch, N={sim.particles.n}, 3 steps)\n  " + m.row(),
    )
