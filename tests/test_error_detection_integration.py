"""Table 4 "Error Detection" wired into the driver (SPH-EXA preset): the
step guard's per-step health check is the one detector, and it acts on
what it finds."""

import numpy as np

from repro.core.config import RunConfig
from repro.core.presets import SPH_EXA, SPHFLOW
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.resilience.chaos import NumericalFault
from repro.resilience.guard import GuardConfig
from repro.timestepping.criteria import TimestepParams


def _sim(config, guard=True):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    return Simulation(
        particles, box, eos,
        config=config.with_(
            n_neighbors=25,
            timestep_params=TimestepParams(use_energy_criterion=False),
        ),
        run_config=RunConfig(guard=GuardConfig() if guard else None),
    )


def test_clean_run_has_no_findings():
    sim = _sim(SPH_EXA)
    sim.run(n_steps=3)
    rep = sim.step_guard.report()
    assert rep.checks == 3
    assert rep.failures == 0
    assert rep.incidents == []


def test_detection_disabled_by_default_presets():
    for preset in (SPH_EXA, SPHFLOW):
        sim = _sim(preset, guard=False)
        sim.run(n_steps=1)
        assert sim.step_guard is None
        assert sim.report().guard is None


def test_injected_corruption_is_flagged_within_a_step():
    golden = _sim(SPH_EXA, guard=False)
    golden.run(n_steps=2)
    sim = _sim(SPH_EXA)
    sim.run(n_steps=1)
    # A huge mass excursion.
    NumericalFault(step=1, array="m", kind="bitflip", bit=62).inject(sim.particles)
    # The poisoned step overflows by design; only it may do so silently.
    with np.errstate(over="ignore", invalid="ignore"):
        sim.run(n_steps=1)
    rep = sim.step_guard.report()
    assert rep.failures == 1, "corruption not flagged"
    assert rep.incidents[0]["step"] == 1
    # Flagged, then healed: the retry ran from the last healthy snapshot.
    assert rep.rung_heals["retry"] == 1
    for name in ("x", "v", "m", "rho", "u", "h"):
        assert np.array_equal(
            getattr(sim.particles, name), getattr(golden.particles, name)
        ), name


def test_findings_accumulate_with_step_labels():
    sim = _sim(SPH_EXA)
    sim.run(n_steps=1)
    sim.particles.m[0] *= 4.0  # mass-conservation violation (drift ledger)
    sim.run(n_steps=1)
    incidents = sim.step_guard.report().incidents
    assert {inc["step"] for inc in incidents} == {1}
    assert any(
        f.startswith("drift: mass") for inc in incidents for f in inc["findings"]
    )
