"""Serial vs threaded parity, and the phase executor's own contract.

With ``workers >= 1`` the phase executor evaluates phases D/E/G/I over
pair-balanced slices of the same CSR neighbour list the serial path
uses, one slice per thread, with per-particle reduction order preserved
— so the outputs match the serial path bit for bit for any worker
count, also with more threads (and so more, smaller slices) than cores.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import State
from repro.sph.viscosity import ViscosityParams
from repro.timestepping.steppers import TimestepParams

RTOL = 1e-12
FIELDS = ("x", "v", "rho", "u", "p", "a", "du")
WORKER_COUNTS = (1, 2, 3, 4, 8)
# CFL-only dt keeps the patch actually moving during the check.
TS = TimestepParams(use_energy_criterion=False)


def _square_case():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=12, layers=12))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    return particles, box, eos, config


def _square_standard_case():
    """Every sub-pass of the force phase: kernel-derivative gradients,
    standard volume elements, grad-h and the Balsara switch."""
    particles, box, eos, config = _square_case()
    config = config.with_(
        gradients="standard", volume_elements="standard", grad_h=True,
        viscosity=ViscosityParams(use_balsara=True),
    )
    return particles, box, eos, config


def _evrard_case():
    particles, box, eos = make_evrard(EvrardConfig(n_target=2000))
    config = SimulationConfig().with_(
        n_neighbors=30, gravity="quadrupole", timestep_params=TS
    )
    return particles, box, eos, config


CASES = {
    "square-patch": _square_case,
    "square-patch-standard": _square_standard_case,
    "evrard": _evrard_case,
}


def _run(case: str, exec_config: ExecConfig, n_steps: int = 2):
    particles, box, eos, config = CASES[case]()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=exec_config),
    )
    try:
        sim.run(n_steps=n_steps)
        state = {name: getattr(sim.particles, name).copy() for name in FIELDS}
        extras = {
            "n_p2p": sim._last_gravity_p2p,
            "n_m2p": sim._last_gravity_m2p,
            "potential_energy": sim.potential_energy,
            "max_mu": sim._max_mu,
            "dt": [s.dt for s in sim.history],
            "tracer": sim.tracer,
            "gravity": sim.report().gravity,
        }
    finally:
        sim.close()
    return state, extras


_serial_cache: dict = {}


def _serial(case: str):
    if case not in _serial_cache:
        _serial_cache[case] = _run(case, ExecConfig())
    return _serial_cache[case]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_pool_matches_serial(case, workers):
    ref_state, ref_extras = _serial(case)
    state, extras = _run(case, ExecConfig(workers=workers))
    for name in FIELDS:
        assert np.array_equal(state[name], ref_state[name]), (
            f"{case}: field {name!r} diverged with workers={workers}"
        )
    assert extras["dt"] == ref_extras["dt"], "time-step sequence diverged"
    assert extras["max_mu"] == pytest.approx(ref_extras["max_mu"], rel=RTOL)
    assert extras["potential_energy"] == pytest.approx(
        ref_extras["potential_energy"], rel=RTOL, abs=1e-300
    )


def test_gravity_interaction_counts_partition_exactly():
    """Leaf partitioning must not change the P2P/M2P interaction totals."""
    _, ref_extras = _serial("evrard")
    _, extras = _run("evrard", ExecConfig(workers=2))
    assert extras["n_p2p"] == ref_extras["n_p2p"]
    assert extras["n_m2p"] == ref_extras["n_m2p"]


def test_compiled_pool_gravity_matches_compiled_serial():
    """The gravity task runs on the backend the driver resolved, and a
    leaf's sums do not depend on the partition: same interactions, same
    fields, on the compiled walk as on the numpy one."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    ref_state, ref_extras = _run("evrard", ExecConfig(backend="cffi"))
    state, extras = _run("evrard", ExecConfig(backend="cffi", workers=2))
    for name in FIELDS:
        np.testing.assert_allclose(state[name], ref_state[name], rtol=RTOL, atol=0.0)
    assert extras["gravity"] == ref_extras["gravity"]
    assert extras["gravity"]["path"] == "cffi"
    # The MAC is the same arithmetic on both renderings.
    numpy_gravity = _serial("evrard")[1]["gravity"]
    for key in ("calls", "p2p_per_step", "m2p_per_step"):
        assert extras["gravity"][key] == numpy_gravity[key]
    assert numpy_gravity["path"] == "numpy" and numpy_gravity["m2p_per_step"] > 0


def _gravity_results(monkeypatch, exec_config, n_steps=3):
    """Every ``GravityResult`` the executor hands the driver during an
    hexadecapole Evrard run."""
    from repro.core.phase_executor import PhaseExecutor

    real = PhaseExecutor.gravity
    results = []

    def recording(self, *args, **kwargs):
        res = real(self, *args, **kwargs)
        results.append(res)
        return res

    particles, box, eos, config = _evrard_case()
    with monkeypatch.context() as patch, Simulation(
        particles, box, eos, config=config.with_(gravity="hexadecapole"),
        run_config=RunConfig(exec=exec_config),
    ) as sim:
        patch.setattr(PhaseExecutor, "gravity", recording)
        sim.run(n_steps=n_steps)
    return results


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_compiled_gravity_is_bitwise_across_workers(monkeypatch, workers):
    """A particle's lists, and so its lane-blocked sums, are its leaf's
    alone: any slicing of the leaves gives the serial acc/phi bit for
    bit, with the same interaction counts."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    key = "evrard-hexadecapole-cffi"
    if key not in _serial_cache:
        _serial_cache[key] = _gravity_results(monkeypatch, ExecConfig(backend="cffi"))
    ref = _serial_cache[key]
    got = _gravity_results(
        monkeypatch,
        ExecConfig(backend="cffi", workers=workers),
    )
    assert len(got) == len(ref) == 4  # two evaluations on the first step
    for a, b in zip(got, ref):
        assert a.path == b.path == "cffi"
        assert (a.n_p2p, a.n_m2p) == (b.n_p2p, b.n_m2p)
        assert np.array_equal(a.acc, b.acc)
        assert np.array_equal(a.phi, b.phi)


@pytest.mark.parametrize("chunks", [3])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_compiled_gravity_is_bitwise_across_workers_and_chunks(
    monkeypatch, workers, chunks
):
    """More slices than threads: each phase cut into ``chunks`` slices
    per thread, which the pool queues, still gives the serial acc/phi
    bit for bit, with the same interaction counts."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    from repro.core import phase_executor

    key = "evrard-hexadecapole-cffi"
    if key not in _serial_cache:
        _serial_cache[key] = _gravity_results(monkeypatch, ExecConfig(backend="cffi"))
    ref = _serial_cache[key]
    cut = phase_executor.balanced_row_slices
    monkeypatch.setattr(
        phase_executor, "balanced_row_slices",
        lambda offsets, n: cut(offsets, n * chunks),
    )
    got = _gravity_results(
        monkeypatch, ExecConfig(backend="cffi", workers=workers)
    )
    assert len(got) == len(ref) == 4  # two evaluations on the first step
    for a, b in zip(got, ref):
        assert a.path == b.path == "cffi"
        assert (a.n_p2p, a.n_m2p) == (b.n_p2p, b.n_m2p)
        assert np.array_equal(a.acc, b.acc)
        assert np.array_equal(a.phi, b.phi)


def test_threaded_gravity_computes_the_moments_once(rp_calls):
    """Sliced gravity shares one set of node moments per evaluation: one
    ``rp_node_moments`` call, one ``rp_gravity`` call per slice."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    _, extras = _run("evrard", ExecConfig(backend="cffi", workers=2), n_steps=2)
    calls = [name for name, _ in rp_calls]
    evaluations = extras["gravity"]["calls"]
    assert evaluations == 3
    assert calls.count("rp_node_moments") == evaluations
    assert calls.count("rp_gravity") == 2 * evaluations


def test_report_has_no_gravity_block_without_gravity():
    assert _serial("square-patch")[1]["gravity"] is None


def test_many_small_slices_keep_parity():
    ref_state, _ = _serial("square-patch")
    state, _ = _run("square-patch", ExecConfig(workers=8))
    for name in FIELDS:
        assert np.array_equal(state[name], ref_state[name]), name


def test_compiled_threads_match_compiled_serial_on_the_square_patch():
    """The compiled pair loops on row slices: same bits as one call, on
    both square-patch cases."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    for case in ("square-patch", "square-patch-standard"):
        ref_state, ref_extras = _run(case, ExecConfig(backend="cffi"))
        for workers in WORKER_COUNTS:
            state, extras = _run(
                case, ExecConfig(backend="cffi", workers=workers)
            )
            for name in FIELDS:
                assert np.array_equal(state[name], ref_state[name]), (
                    case, workers, name,
                )
            assert extras["dt"] == ref_extras["dt"]
            assert extras["max_mu"] == ref_extras["max_mu"]


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_more_slices_than_cores_keep_parity(backend, rp_calls):
    """Eight slices on eight threads, more than the cores.  The support
    list the compiled slices run over is emitted by the h iteration on
    the driver thread — as often as in a serial run, not once per slice
    or per thread."""
    import sys
    import threading

    if backend == "cffi" and not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")

    def filter_threads():
        return [t for name, t in rp_calls if name == "rp_adapt"]

    ref_state, ref_extras = _run(
        "square-patch", ExecConfig(backend=backend), n_steps=3
    )
    serial_lists = len(filter_threads())
    del rp_calls[:]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        state, extras = _run(
            "square-patch",
            ExecConfig(workers=8, backend=backend),
            n_steps=3,
        )
    finally:
        sys.setswitchinterval(interval)
    for name in FIELDS:
        assert np.array_equal(state[name], ref_state[name]), name
    assert extras["dt"] == ref_extras["dt"]
    assert extras["max_mu"] == ref_extras["max_mu"]
    assert len(filter_threads()) == serial_lists
    assert set(filter_threads()) <= {threading.main_thread().ident}
    assert (serial_lists > 0) == (backend == "cffi")


def test_threads_record_fork_join_and_leave_no_process_behind():
    """The driver row shows the fan-outs as Figure 4's fork/join state,
    under the Algorithm-1 letters of the work they run (the IAD matrices
    under E, with the density of their pass); nothing about a threaded
    run is a process or a shared-memory segment."""
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    _, extras = _run("square-patch", ExecConfig(workers=2), n_steps=1)
    fork_join = {
        e.phase for e in extras["tracer"].events if e.state is State.FORK_JOIN
    }
    assert {"E", "G"} <= fork_join
    assert all(
        e.thread == 0
        for e in extras["tracer"].events
        if e.state is State.FORK_JOIN
    )
    assert multiprocessing.active_children() == []
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shm_before


def test_exception_in_one_slice_surfaces_once_and_leaves_state_untouched(
    monkeypatch,
):
    """A slice that raises: the error reaches the caller once every slice
    of the fan-out has finished, nothing of that fan-out is applied, and
    the executor keeps working — the next evaluation equals the serial
    driver's after the same failed one."""
    from repro.core import phase_executor

    real = phase_executor.compute_density

    def run_with_fault(exec_config):
        calls = []
        armed = [False]

        def density(*args, rows=None, **kwargs):
            calls.append(rows)
            # The one slice when serial; the second of the three slices
            # to start when threaded.
            if armed[0] and len(calls) == min(2, max(exec_config.workers, 1)):
                raise FloatingPointError(f"injected in {rows}")
            return real(*args, rows=rows, **kwargs)

        monkeypatch.setattr(phase_executor, "compute_density", density)
        particles, box, eos, config = _square_case()
        with Simulation(
            particles, box, eos, config=config,
            run_config=RunConfig(exec=exec_config),
        ) as sim:
            sim.compute_rates()
            rho = sim.particles.rho.copy()
            calls.clear()
            armed[0] = True
            with pytest.raises(FloatingPointError, match="injected in"):
                sim.compute_rates()
            assert np.array_equal(sim.particles.rho, rho)
            armed[0] = False
            attempted = list(calls)
            sim.compute_rates()
            return attempted, {
                name: getattr(sim.particles, name).copy() for name in FIELDS
            }

    attempted, threaded = run_with_fault(ExecConfig(workers=3))
    assert len(attempted) == 3 and len(set(attempted)) == 3
    _, serial = run_with_fault(ExecConfig())
    for name in FIELDS:
        assert np.array_equal(threaded[name], serial[name]), name


def test_close_is_idempotent_and_degrade_or_rewire_leave_no_thread():
    import threading

    def phase_threads():
        return [
            t for t in threading.enumerate() if t.name.startswith("repro-phase")
        ]

    before = len(phase_threads())
    particles, box, eos, config = _square_case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=2)),
    )
    assert len(phase_threads()) == before  # nothing starts at construction
    sim.compute_rates()
    assert len(phase_threads()) == before + 2
    sim.degrade_to_serial()
    assert len(phase_threads()) == before
    sim.compute_rates()  # degraded: one slice, inline
    assert len(phase_threads()) == before
    sim.close()
    # A driver is wired once, at construction: another thread count is
    # another driver, which starts its own lanes and joins them on close.
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=1)),
    )
    sim.compute_rates()
    assert len(phase_threads()) == before + 1
    with sim:
        pass
    sim.close()
    assert len(phase_threads()) == before


def test_dropped_simulation_takes_its_threads_along():
    """No ``close()``: the executor dies with its simulation, and the
    idle threads with the executor."""
    particles, box, eos, config = _square_case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=2)),
    )
    sim.compute_rates()
    threads = list(sim._phases._pool._threads)
    assert len(threads) == 2
    del sim
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
@pytest.mark.parametrize("volume_elements", ["standard", "generalized"])
def test_iad_bootstraps_a_partly_non_positive_density(volume_elements, backend):
    """IAD reads the previous density (its ``m_j/rho_j`` weights): an
    initial density that is zero on some particles only is replaced by a
    standard summation first, serial and threaded alike."""
    if backend == "cffi" and not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")

    def run(workers):
        particles, box, eos = make_square_patch(
            SquarePatchConfig(side=10, layers=10)
        )
        particles.rho[::7] = 0.0
        config = SimulationConfig().with_(
            gradients="iad", volume_elements=volume_elements,
            n_neighbors=30, timestep_params=TS,
        )
        with Simulation(
            particles, box, eos, config=config,
            run_config=RunConfig(exec=ExecConfig(workers=workers, backend=backend)),
        ) as sim:
            sim.run(n_steps=2)
            return {name: getattr(sim.particles, name).copy() for name in FIELDS}

    serial, threaded = run(0), run(2)
    for name in FIELDS:
        assert np.all(np.isfinite(serial[name])), name
        assert np.array_equal(serial[name], threaded[name]), name


def test_one_slice_runs_inline_on_the_evaluation_record(monkeypatch):
    """``workers=0`` is the one-slice case of the fan-out: no pool, no
    span on a thread row, and the force loop reads the evaluation's own
    record — the one whose reverse pairs serve ``w_j``/``grad_j``."""
    from repro.core import phase_executor, simulation

    made, seen = [], []
    real_cut, real_forces = simulation.support_cut, phase_executor.compute_forces

    def cut(*args, **kwargs):
        made.append(real_cut(*args, **kwargs)[1])
        return made[-1].nlist, made[-1]

    def forces(*args, pairs=None, **kwargs):
        seen.append(pairs)
        return real_forces(*args, pairs=pairs, **kwargs)

    monkeypatch.setattr(simulation, "support_cut", cut)
    monkeypatch.setattr(phase_executor, "compute_forces", forces)
    particles, box, eos, config = _square_case()
    with Simulation(particles, box, eos, config=config) as sim:
        sim.run(n_steps=2)
        assert sim._phases._pool is None
        events = sim.tracer.events
    assert events and all(e.thread == 0 for e in events)
    assert {e.state for e in events if e.phase in "EG"} == {State.USEFUL}
    assert len(seen) == len(made) == 3  # the first evaluation, one per step
    for record, evaluation in zip(seen, made):
        assert record is evaluation and record.rev is not None


def test_exec_config_validation():
    with pytest.raises(ValueError):
        ExecConfig(workers=-1)
    for bad in ("2", 2.5, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            ExecConfig(workers=bad)
    with pytest.raises(ValueError, match="backend"):
        ExecConfig(backend="fortran")
