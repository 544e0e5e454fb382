"""Figure 2 — ChaNGa strong scaling (square patch + Evrard collapse).

Fig 2a: square patch on Piz Daint, 12..1536 cores — 738 s @ 12 cores
flattening near 93 s (ChaNGa pays its gravity-oriented infrastructure on
a pure-SPH test, an order of magnitude above SPHYNX/SPH-flow).
Fig 2b: Evrard on Piz Daint, 12..1536 — 30.38 s @ 12 down to 5.74 s, the
individual-time-step rungs both saving work and capping scalability.
"""

from repro.core.presets import CHANGA
from repro.model.calibration import calibrate_kappa
from repro.model.cluster import ClusterModel
from repro.model.machine import PIZ_DAINT
from repro.model.scaling import strong_scaling

from _scaling_common import assert_paper_shape, series_report

CORES = (12, 24, 48, 96, 192, 384, 768, 1536)
PAPER_SQUARE = {12: 738.0, 1536: 93.0}
PAPER_EVRARD = {12: 30.38, 1536: 5.74}


def test_fig2a_changa_square(benchmark, report, square_workload):
    s = benchmark.pedantic(
        lambda: strong_scaling(CHANGA, "square", PIZ_DAINT, CORES,
                               workload=square_workload, n_steps=20),
        rounds=1, iterations=1,
    )
    text = series_report(
        "Figure 2a: ChaNGa strong scalability, square test case", [s], PAPER_SQUARE
    )
    report("fig2a_changa_square", text)
    assert_paper_shape(s, PAPER_SQUARE)


def test_fig2b_changa_evrard(benchmark, report, evrard_workload):
    s = benchmark.pedantic(
        lambda: strong_scaling(CHANGA, "evrard", PIZ_DAINT, CORES,
                               workload=evrard_workload, n_steps=20),
        rounds=1, iterations=1,
    )
    text = series_report(
        "Figure 2b: ChaNGa strong scalability, Evrard test case", [s], PAPER_EVRARD
    )
    report("fig2b_changa_evrard", text)
    assert_paper_shape(s, PAPER_EVRARD)
    # The rung structure must actually engage on the Evrard profile.
    kappa = calibrate_kappa(CHANGA, evrard_workload)
    model = ClusterModel(evrard_workload, CHANGA, PIZ_DAINT, 192, kappa=kappa)
    assert model.substeps > 1


def test_fig2_cross_code_shape(benchmark, report, square_workload):
    """Who-wins check: ChaNGa's square-patch curve sits an order of
    magnitude above SPHYNX's at every scale (Figs 1a vs 2a)."""
    from repro.core.presets import SPHYNX

    sy, ch = benchmark.pedantic(
        lambda: (
            strong_scaling(SPHYNX, "square", PIZ_DAINT, (12, 96, 384),
                           workload=square_workload, n_steps=5),
            strong_scaling(CHANGA, "square", PIZ_DAINT, (12, 96, 384),
                           workload=square_workload, n_steps=5),
        ),
        rounds=1, iterations=1,
    )
    for p_s, p_c in zip(sy.points, ch.points):
        assert p_c.time_per_step > 5.0 * p_s.time_per_step


def test_fig2_step_model_benchmark(benchmark, evrard_workload):
    kappa = calibrate_kappa(CHANGA, evrard_workload)
    model = ClusterModel(evrard_workload, CHANGA, PIZ_DAINT, 1536, kappa=kappa)
    benchmark(model.simulate_step)
