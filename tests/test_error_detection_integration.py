"""Table 4 "Error Detection" wired into the driver (SPH-EXA preset)."""

import numpy as np

from repro.core.presets import SPH_EXA, SPHFLOW
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.resilience.failures import inject_bitflip
from repro.timestepping.criteria import TimestepParams


def _sim(config):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    return Simulation(
        particles, box, eos,
        config=config.with_(
            n_neighbors=25,
            timestep_params=TimestepParams(use_energy_criterion=False),
        ),
    )


def test_clean_run_has_no_findings():
    sim = _sim(SPH_EXA)
    assert sim.config.error_detection
    sim.run(n_steps=3)
    assert sim.sdc_findings == []
    assert sim._sdc_monitor.checks_run == 3
    assert sim._abft_guard.checks_run == 3


def test_detection_disabled_by_default_presets():
    sim = _sim(SPHFLOW)
    sim.run(n_steps=1)
    assert sim._sdc_monitor is None
    assert sim.sdc_findings == []


def test_injected_corruption_is_flagged_within_a_step():
    sim = _sim(SPH_EXA)
    sim.run(n_steps=1)
    inject_bitflip(sim.particles.m, bit=62)  # huge mass excursion
    # The poisoned step overflows by design; only it may do so silently.
    with np.errstate(over="ignore", invalid="ignore"):
        sim.step()
    assert sim.sdc_findings, "corruption not flagged"
    assert any("step 2" in f for f in sim.sdc_findings)


def test_findings_accumulate_with_step_labels():
    sim = _sim(SPH_EXA)
    sim.run(n_steps=1)
    sim.particles.m[0] *= 4.0  # mass-conservation violation (ABFT ledger)
    sim.step()
    labels = {f.split(":")[0] for f in sim.sdc_findings}
    assert labels == {"step 2"}
