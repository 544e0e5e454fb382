"""Figure 3 — SPH-flow strong scaling (square patch, both machines).

Pure-MPI (one rank per core), ORB decomposition with local-inner-outer
overlap: 31.00 s @ 12 cores down to 2.80 s @ 768 on Piz Daint, with the
MareNostrum curve tracking it.  The per-core rank layout makes SPH-flow
the most halo-exposed of the three codes at scale.
"""

from repro.core.presets import SPHFLOW, SPHYNX
from repro.model.calibration import calibrate_kappa
from repro.model.cluster import ClusterModel
from repro.model.machine import MARENOSTRUM4, PIZ_DAINT
from repro.model.scaling import strong_scaling

from _scaling_common import assert_paper_shape, series_report

CORES = (12, 24, 48, 96, 192, 384, 768)
PAPER = {12: 31.00, 768: 2.80}


def test_fig3_sphflow_square(benchmark, report, square_workload):
    series = benchmark.pedantic(
        lambda: [
            strong_scaling(SPHFLOW, "square", machine, CORES,
                           workload=square_workload, n_steps=20)
            for machine in (PIZ_DAINT, MARENOSTRUM4)
        ],
        rounds=1, iterations=1,
    )
    text = series_report(
        "Figure 3: SPH-flow strong scalability, square test case",
        series, PAPER,
    )
    report("fig3_sphflow_square", text)
    assert_paper_shape(series[0], PAPER)


def test_fig3_rank_layout_is_pure_mpi(benchmark, square_workload):
    model = benchmark.pedantic(
        lambda: ClusterModel(square_workload, SPHFLOW, PIZ_DAINT, 96),
        rounds=1, iterations=1,
    )
    assert model.threads_per_rank == 1
    assert model.n_ranks == 96


def test_fig3_crossover_with_sphynx(benchmark, report, square_workload):
    """Crossover shape (Figs 1a vs 3): SPH-flow starts *below* SPHYNX at
    one node but its pure-MPI halo exposure closes the gap at scale."""
    sf, sy = benchmark.pedantic(
        lambda: (
            strong_scaling(SPHFLOW, "square", PIZ_DAINT, (12, 384),
                           workload=square_workload, n_steps=5),
            strong_scaling(SPHYNX, "square", PIZ_DAINT, (12, 384),
                           workload=square_workload, n_steps=5),
        ),
        rounds=1, iterations=1,
    )
    assert sf.points[0].time_per_step < sy.points[0].time_per_step
    gap_small = sy.points[0].time_per_step / sf.points[0].time_per_step
    gap_large = sy.points[-1].time_per_step / sf.points[-1].time_per_step
    assert gap_large < gap_small * 1.5  # the advantage does not widen


def test_fig3_step_model_benchmark(benchmark, square_workload):
    kappa = calibrate_kappa(SPHFLOW, square_workload)
    model = ClusterModel(square_workload, SPHFLOW, PIZ_DAINT, 768, kappa=kappa)
    benchmark(model.simulate_step)
