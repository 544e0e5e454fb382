"""Cross-scenario conformance: every registry entry earns its listing.

Parametrized over the whole scenario registry, each entry must

  (a) reproduce its committed golden master (per-step conservation totals
      and final-state checksums, tight relative tolerance),
  (b) hold the conserved-quantity drift bounds it declares, and
  (c) produce bit-for-bit identical particle state with 0, 1 and 2
      phase threads — the repo's standing bitwise-reproducibility
      invariant, extended from the two paper workloads to all eight
      scenarios.

A new scenario added to :mod:`repro.scenarios.library` is enrolled here
automatically; the only extra artifact it needs is its golden file
(``PYTHONPATH=src python tools/regen_goldens.py <name>``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig
from repro.scenarios import (
    all_scenarios,
    compare_records,
    get_scenario,
    golden_path,
    load_golden,
    record_run,
)

SCENARIOS = [sc.name for sc in all_scenarios()]
FIELDS = ("x", "v", "rho", "u", "p", "h", "du")


def _run(name: str, exec_config: ExecConfig = ExecConfig()):
    """One golden-length run; returns (record, drift, final field arrays)."""
    scenario = get_scenario(name)
    sim = scenario.make_simulation(
        test=True, run_config=RunConfig(exec=exec_config)
    )
    try:
        sim.run(n_steps=scenario.golden_steps)
        record = record_run(sim, case=f"scenario:{name}")
        drift = sim.conservation_drift()
        state = {f: getattr(sim.particles, f).copy() for f in FIELDS}
    finally:
        sim.close()
    return record, drift, state


_baseline_cache: dict = {}


def _baseline(name: str):
    if name not in _baseline_cache:
        _baseline_cache[name] = _run(name)
    return _baseline_cache[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_matches_golden_master(name):
    path = golden_path(name)
    assert path.exists(), (
        f"golden file missing for scenario {name!r}: {path} "
        "(generate with: PYTHONPATH=src python tools/regen_goldens.py)"
    )
    record, _, _ = _baseline(name)
    failures = compare_records(record, load_golden(path))
    assert not failures, f"{name} golden mismatch:\n" + "\n".join(failures)


@pytest.mark.parametrize("name", SCENARIOS)
def test_declared_invariants_hold(name):
    scenario = get_scenario(name)
    _, drift, _ = _baseline(name)
    for quantity, tolerance in scenario.invariants.items():
        assert drift[quantity] <= tolerance, (
            f"{name}: {quantity} drift {drift[quantity]:.3e} "
            f"exceeds declared bound {tolerance:.3e}"
        )


@pytest.mark.parametrize("name", SCENARIOS)
def test_worker_pool_is_bitwise_identical(name):
    _, _, ref = _baseline(name)
    for workers in (1, 2):
        _, _, state = _run(name, ExecConfig(workers=workers))
        for field in FIELDS:
            assert np.array_equal(state[field], ref[field]), (
                f"{name}: field {field!r} differs with workers={workers}"
            )


def test_registry_has_at_least_eight_scenarios():
    """The ISSUE-6 floor: the paper's two workloads plus six new ones."""
    assert len(SCENARIOS) >= 8
    assert {"square-patch", "evrard"} <= set(SCENARIOS)


def test_every_scenario_has_a_committed_golden():
    missing = [n for n in SCENARIOS if not golden_path(n).exists()]
    assert not missing, f"scenarios without golden masters: {missing}"
