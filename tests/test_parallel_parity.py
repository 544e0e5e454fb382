"""Serial vs process-pool parity (the tentpole acceptance criterion).

The pool evaluates phases D/E/G/I over pair-balanced slices of the same
CSR neighbour list the serial path uses, with per-particle reduction
order preserved — so the outputs must match the serial path to
rtol = 1e-12 (in practice they are bit-for-bit identical) for any worker
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.profiling.metrics import pool_overhead
from repro.profiling.trace import State
from repro.timestepping.steppers import TimestepParams

RTOL = 1e-12
FIELDS = ("x", "v", "rho", "u", "p", "a", "du")
WORKER_COUNTS = (1, 2, 4)
# CFL-only dt keeps the patch actually moving during the check.
TS = TimestepParams(use_energy_criterion=False)


def _square_case():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=12, layers=12))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    return particles, box, eos, config


def _evrard_case():
    particles, box, eos = make_evrard(EvrardConfig(n_target=2000))
    config = SimulationConfig().with_(
        n_neighbors=30, gravity="quadrupole", timestep_params=TS
    )
    return particles, box, eos, config


CASES = {"square-patch": _square_case, "evrard": _evrard_case}


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
        np.testing.assert_allclose(
            state[name],
            ref_state[name],
            rtol=RTOL,
            atol=0.0,
            err_msg=f"{case}: field {name!r} diverged with workers={workers}",
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


def test_report_has_no_gravity_block_without_gravity():
    assert _serial("square-patch")[1]["gravity"] is None


def test_multiple_chunks_per_worker_keep_parity():
    ref_state, _ = _serial("square-patch")
    state, _ = _run("square-patch", ExecConfig(workers=2, chunks_per_worker=3))
    for name in FIELDS:
        np.testing.assert_allclose(state[name], ref_state[name], rtol=RTOL, atol=0.0)


def test_pool_records_fan_out_and_reduce_states():
    """The tracer must expose pool orchestration for the POP-style reports."""
    _, extras = _run("square-patch", ExecConfig(workers=2), n_steps=1)
    tracer = extras["tracer"]
    states = {e.state for e in tracer.events}
    assert State.FAN_OUT in states and State.REDUCE in states
    overhead = pool_overhead(tracer)
    assert overhead["fan_out"] > 0.0
    assert overhead["reduce"] > 0.0
    # Parallel phases carry the Algorithm-1 letters of the work they run.
    fan_out_phases = {e.phase for e in tracer.events if e.state is State.FAN_OUT}
    assert {"D", "E", "G"} <= fan_out_phases


def test_exec_config_validation():
    with pytest.raises(ValueError):
        ExecConfig(workers=-1)
    with pytest.raises(ValueError):
        ExecConfig(cache_skin=0.0)
    with pytest.raises(ValueError):
        ExecConfig(chunks_per_worker=0)
    assert not ExecConfig().parallel_enabled
    assert ExecConfig(workers=1).parallel_enabled
