"""Fault injection through the real driver (the acceptance scenarios).

A seeded :class:`~repro.resilience.chaos.ChaosPolicy` kills, delays and
corrupts pool workers during actual Algorithm-1 phases of a square-patch
run; the run must complete with final state matching the serial golden
master **bit-for-bit** — recovery may cost time, never accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.parallel import ExecConfig, SupervisorConfig
from repro.resilience.chaos import ChaosEvent, ChaosPolicy, random_policy
from repro.timestepping.steppers import TimestepParams

FIELDS = ("x", "v", "rho", "u", "p", "a", "du")
TS = TimestepParams(use_energy_criterion=False)
N_STEPS = 5


def _case():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=12, layers=12))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    return particles, box, eos, config


def _run(exec_config, n_steps: int = N_STEPS):
    particles, box, eos, config = _case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=exec_config),
    )
    try:
        sim.run(n_steps=n_steps)
        state = {f: getattr(sim.particles, f).copy() for f in FIELDS}
        dts = [s.dt for s in sim.history]
        stats = sim.report().recovery
    finally:
        sim.close()
    return state, dts, stats


_golden: dict = {}


def _serial():
    if "ref" not in _golden:
        _golden["ref"] = _run(ExecConfig())
    return _golden["ref"]


def _assert_bitwise(state, dts):
    ref_state, ref_dts, _ = _serial()
    for f in FIELDS:
        assert np.array_equal(state[f], ref_state[f]), f"field {f!r} diverged"
    assert dts == ref_dts, "time-step sequence diverged"


# ======================================================================
# Driver-level acceptance scenarios
# ======================================================================
def test_kills_during_phase_d_and_g_match_serial_bitwise():
    chaos = ChaosPolicy(
        [
            ChaosEvent(step=1, phase="D", action="kill", worker=0),
            ChaosEvent(step=3, phase="G", action="kill", worker=1),
        ]
    )
    state, dts, stats = _run(ExecConfig(workers=2, chaos=chaos))
    _assert_bitwise(state, dts)
    assert stats["crashes"] == 2 and stats["respawns"] == 2
    assert chaos.exhausted
    assert not stats["degraded"]


def test_hung_worker_recovers_without_double_apply():
    chaos = ChaosPolicy(
        [ChaosEvent(step=2, phase="G", action="delay", worker=0, delay=1.5)]
    )
    sup = SupervisorConfig(
        initial_deadline=0.3,
        min_deadline=0.3,
        drain_timeout=10.0,
        backoff_base=0.001,
    )
    state, dts, stats = _run(ExecConfig(workers=2, chaos=chaos, supervisor=sup))
    _assert_bitwise(state, dts)
    assert stats["hangs"] == 1
    assert stats["late_replies_discarded"] >= 1
    assert stats["crashes"] == 0


def test_sdc_flip_detected_and_fixed_with_verify_outputs():
    chaos = ChaosPolicy(
        [
            ChaosEvent(
                step=2, phase="G", action="flip",
                field="out_a", index=11, bit=62,
            )
        ]
    )
    state, dts, stats = _run(
        ExecConfig(workers=2, chaos=chaos, verify_outputs=True)
    )
    _assert_bitwise(state, dts)
    assert stats["sdc_detected"] == 1
    assert stats["serial_fallbacks"] >= 1


def test_seeded_random_policy_run_completes_bitwise():
    chaos = random_policy(
        seed=42, n_steps=N_STEPS, n_workers=2, n_events=3,
        actions=("kill",),
    )
    state, dts, stats = _run(ExecConfig(workers=2, chaos=chaos))
    _assert_bitwise(state, dts)
    assert stats["crashes"] == chaos.fired


# ======================================================================
# Policy mechanics
# ======================================================================
def test_events_fire_exactly_once():
    policy = ChaosPolicy([ChaosEvent(step=0, phase="*", action="kill", worker=0)])
    assert policy.directives(step=0, phase="E", worker=0, chunk=0) == {"kill": True}
    # A re-issued chunk must not re-trigger the same fault.
    assert policy.directives(step=0, phase="E", worker=0, chunk=0) is None
    assert policy.exhausted and policy.fired == 1
    policy.reset()
    assert not policy.exhausted
    assert policy.directives(step=0, phase="G", worker=0, chunk=3) == {"kill": True}


def test_event_matching_respects_all_selectors():
    ev = ChaosEvent(step=2, phase="G", action="kill", worker=1, chunk=3)
    assert ev.matches(2, "G", 1, 3)
    assert not ev.matches(1, "G", 1, 3)
    assert not ev.matches(2, "E", 1, 3)
    assert not ev.matches(2, "G", 0, 3)
    assert not ev.matches(2, "G", 1, 2)
    wild = ChaosEvent(step=2, phase="*", action="kill")
    assert wild.matches(2, "E", 0, 0) and wild.matches(2, "I", 7, 9)


def test_directives_merge_multiple_matches():
    policy = ChaosPolicy(
        [
            ChaosEvent(step=0, phase="*", action="delay", worker=0, delay=0.5),
            ChaosEvent(step=0, phase="*", action="flip", worker=0, field="out"),
        ]
    )
    d = policy.directives(step=0, phase="E", worker=0, chunk=0)
    assert d["delay"] == 0.5
    assert d["flip"] == [("out", 0, 62)]


def test_random_policy_is_deterministic():
    a = random_policy(seed=7, n_steps=10, n_workers=4)
    b = random_policy(seed=7, n_steps=10, n_workers=4)
    assert a.events == b.events
    c = random_policy(seed=8, n_steps=10, n_workers=4)
    assert a.events != c.events


def test_event_validation():
    with pytest.raises(ValueError):
        ChaosEvent(step=0, phase="*", action="explode")
    with pytest.raises(ValueError):
        ChaosEvent(step=0, phase="*", action="delay", delay=0.0)
    with pytest.raises(ValueError):
        ChaosEvent(step=0, phase="*", action="flip")
