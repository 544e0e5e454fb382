"""Figure 1 — SPHYNX strong scaling (square patch + Evrard collapse).

Fig 1a: rotating square patch, 10^6 particles, Piz Daint and MareNostrum,
12..384 cores — axis anchors 38.25 s @ 12 cores down to 2.79 s @ 384.
Fig 1b: Evrard collapse, same sweep — 40.27 s @ 12 down to 3.86 s @ 384.

The benchmark target is one modeled cluster step at the largest scale.
"""

from repro.core.presets import SPHYNX
from repro.model.calibration import calibrate_kappa
from repro.model.cluster import ClusterModel
from repro.model.machine import MARENOSTRUM4, PIZ_DAINT
from repro.model.scaling import strong_scaling

from _scaling_common import assert_paper_shape, series_report

CORES = (12, 24, 48, 96, 192, 384)
PAPER_SQUARE = {12: 38.25, 384: 2.79}
PAPER_EVRARD = {12: 40.27, 384: 3.86}


def test_fig1a_sphynx_square(benchmark, report, square_workload):
    series = benchmark.pedantic(
        lambda: [
            strong_scaling(SPHYNX, "square", machine, CORES,
                           workload=square_workload, n_steps=20)
            for machine in (PIZ_DAINT, MARENOSTRUM4)
        ],
        rounds=1, iterations=1,
    )
    text = series_report(
        "Figure 1a: SPHYNX strong scalability, square test case",
        series, PAPER_SQUARE,
    )
    report("fig1a_sphynx_square", text)
    assert_paper_shape(series[0], PAPER_SQUARE)
    # Fig 1a shape: the two machines track each other closely.
    for p_pd, p_mn in zip(series[0].points, series[1].points):
        assert abs(p_mn.time_per_step / p_pd.time_per_step - 1.0) < 0.25


def test_fig1b_sphynx_evrard(benchmark, report, evrard_workload):
    series = benchmark.pedantic(
        lambda: [
            strong_scaling(SPHYNX, "evrard", machine, CORES,
                           workload=evrard_workload, n_steps=20)
            for machine in (PIZ_DAINT, MARENOSTRUM4)
        ],
        rounds=1, iterations=1,
    )
    text = series_report(
        "Figure 1b: SPHYNX strong scalability, Evrard test case",
        series, PAPER_EVRARD,
    )
    report("fig1b_sphynx_evrard", text)
    assert_paper_shape(series[0], PAPER_EVRARD)


def test_fig1_step_model_benchmark(benchmark, square_workload):
    kappa = calibrate_kappa(SPHYNX, square_workload)
    model = ClusterModel(square_workload, SPHYNX, PIZ_DAINT, 384, kappa=kappa)
    benchmark(model.simulate_step)
