"""Figure 4 — Extrae/Paraver-style trace of SPHYNX on the Evrard test.

The paper shows one 192-core time step with phases A-J and the five
execution states; its findings: the tree build (A) runs serially while
the other threads idle, B/D/J contain idle regions, and a scalable code
"will need not contain any of the black parallel regions".

The bench renders the same view from the modeled thread-level trace and
asserts those findings hold in the reproduction: phase A's non-master
threads are idle, and idle time concentrates in A, B, D and J.
"""

from collections import defaultdict

from repro.core.presets import SPHYNX
from repro.observability import State, Tracer, render_timeline
from repro.runtime.calibration import calibrate_kappa
from repro.runtime.cluster import ClusterModel
from repro.runtime.machine import PIZ_DAINT

CORES = 192  # the paper's trace scale: 16 ranks x 12 threads


def _thread_trace(evrard_workload):
    kappa = calibrate_kappa(SPHYNX, evrard_workload)
    model = ClusterModel(evrard_workload, SPHYNX, PIZ_DAINT, CORES, kappa=kappa)
    tracer = Tracer()
    model.thread_trace(tracer, n_steps=1)
    return model, tracer


def test_fig4_trace_timeline(benchmark, report, evrard_workload):
    model, tracer = benchmark.pedantic(
        lambda: _thread_trace(evrard_workload), rounds=1, iterations=1
    )
    assert model.n_ranks == 16 and model.threads_per_rank == 12

    timeline = render_timeline(tracer, width=110, max_rows=24)
    header = (
        "Figure 4: Extrae-style visualization of SPHYNX (Evrard, 192 cores,"
        " one time step)\n"
        "rows: rank.thread | states: #=computing M=MPI s=sync f=fork-join"
        " .=idle\n"
    )
    report("fig4_trace_timeline", header + timeline)

    # --- The paper's reading of this figure, asserted -------------------
    idle_by_phase = defaultdict(float)
    useful_by_phase = defaultdict(float)
    for e in tracer.events:
        if e.state is State.IDLE:
            idle_by_phase[e.phase] += e.duration
        elif e.state is State.USEFUL:
            useful_by_phase[e.phase] += e.duration

    # Phase A: serial tree build -> the 11 worker threads idle ~11x the
    # master's useful span.
    assert idle_by_phase["A"] > 5.0 * useful_by_phase["A"] / 12.0
    # Idle regions concentrate in A, B, D and J (the phases the paper
    # flags), not in the clean SPH kernels E-H.
    flagged = sum(idle_by_phase[p] for p in "ABDJ")
    clean = sum(idle_by_phase[p] for p in "EFGH")
    assert flagged > 3.0 * clean
    # All ten phases present on the timeline.
    letters = set(tracer.phase_letters())
    assert set("ABCDEFGHIJ") <= letters


def test_fig4_states_all_present(benchmark, evrard_workload):
    _, tracer = benchmark.pedantic(
        lambda: _thread_trace(evrard_workload), rounds=1, iterations=1
    )
    states = {e.state for e in tracer.events}
    assert {State.USEFUL, State.IDLE, State.MPI, State.SYNC, State.FORK_JOIN} <= states


def test_fig4_trace_benchmark(benchmark, evrard_workload):
    kappa = calibrate_kappa(SPHYNX, evrard_workload)
    model = ClusterModel(evrard_workload, SPHYNX, PIZ_DAINT, CORES, kappa=kappa)

    def run():
        t = Tracer()
        model.thread_trace(t, n_steps=1)
        return len(t.events)

    n = benchmark(run)
    assert n > 100


def test_fig4_measured_pool_timeline(report):
    """The same Paraver-style view, from a *measured* threaded execution.

    The phase executor records the span of every row slice a thread ran
    in the driver's tracer, so `render_timeline` can draw a real run the
    way Figure 4 draws the Extrae trace: the driver on row r0t0 and one
    row per thread lane, with the driver's fork/join state around the
    threads' useful spans.
    """
    from repro.core.config import ExecConfig, RunConfig, SimulationConfig
    from repro.core.simulation import Simulation
    from repro.ics.square_patch import SquarePatchConfig, make_square_patch
    from repro.timestepping.steppers import TimestepParams

    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=12, layers=6)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    with Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=2)),
    ) as sim:
        sim.run(n_steps=2)
        tracer = sim.tracer

    timeline = render_timeline(tracer, width=110, max_rows=12)
    report(
        "fig4_measured_pool_timeline",
        "Figure-4-style view of a measured 2-thread run "
        f"(square patch, N={sim.particles.n}, 2 steps)\n" + timeline,
    )
    # Driver plus one row per thread lane.
    assert "r0t0" in timeline and "r0t1" in timeline and "r0t2" in timeline
    states = {e.state for e in tracer.events}
    assert State.USEFUL in states
    assert State.FORK_JOIN in states
    # Thread rows carry only merged useful spans.
    for e in tracer.events:
        if e.thread > 0:
            assert e.state is State.USEFUL
