"""Golden-master regression: 5 square-patch steps against stored results.

The golden file in ``tests/golden/`` pins down per-step conservation
totals and final-state checksums of a short, deterministic square-patch
run.  Any change to kernels, neighbour search, h adaptation, time
stepping or the execution layer that shifts physics beyond tight
tolerances fails here with a field-by-field report.

The same golden file must hold with the Verlet cache enabled: the cached
run replays the identical h trajectory and differs only by pair-summation
ordering, which the tolerance absorbs.

Regenerate (after an *intentional* physics change) with:

    PYTHONPATH=src python tests/test_golden_master.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.scenarios import compare_records
from repro.timestepping.steppers import TimestepParams

GOLDEN_PATH = Path(__file__).parent / "golden" / "square_patch_5step.json"
N_STEPS = 5
RTOL = 1e-9  # absorbs pair-ordering roundoff and BLAS/platform variation


def _build_sim(exec_config: ExecConfig = ExecConfig()) -> Simulation:
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=6))
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    return Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=exec_config),
    )


def _checksums(sim: Simulation) -> dict:
    p = sim.particles
    fields = {"x": p.x, "v": p.v, "rho": p.rho, "u": p.u, "h": p.h, "du": p.du}
    sums = {}
    for name, arr in fields.items():
        sums[f"{name}_sum"] = float(arr.sum())
        sums[f"{name}_l2"] = float(np.sqrt((arr.astype(np.float64) ** 2).sum()))
    return sums


def _record(sim: Simulation) -> dict:
    steps = []
    for s in sim.history:
        c = s.conservation
        steps.append(
            {
                "dt": s.dt,
                "total_mass": c.total_mass,
                "momentum_norm": float(np.linalg.norm(c.momentum)),
                "kinetic_energy": c.kinetic_energy,
                "internal_energy": c.internal_energy,
                "total_energy": c.total_energy,
            }
        )
    return {
        "case": "square-patch side=10 layers=6 n_neighbors=30 cfl-only",
        "n_particles": sim.particles.n,
        "n_steps": N_STEPS,
        "final_time": sim.time,
        "steps": steps,
        "checksums": _checksums(sim),
    }


def _run(exec_config: ExecConfig = ExecConfig()) -> dict:
    sim = _build_sim(exec_config)
    try:
        sim.run(n_steps=N_STEPS)
        return _record(sim)
    finally:
        sim.close()


def _compare(actual: dict, golden: dict) -> list[str]:
    # Cancellation sums (v_sum = -5.7e-14 here) are held to RTOL times the
    # field's l2 norm, everything else to RTOL of its own value.
    return compare_records(actual, golden, rtol=RTOL)


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden file missing: {GOLDEN_PATH} "
            "(regenerate with: PYTHONPATH=src python tests/test_golden_master.py)"
        )
    return json.loads(GOLDEN_PATH.read_text())


def test_square_patch_matches_golden(golden):
    failures = _compare(_run(), golden)
    assert not failures, "golden mismatch:\n" + "\n".join(failures)


def test_square_patch_matches_golden_with_cache(golden):
    failures = _compare(_run(ExecConfig(neighbor_cache=True)), golden)
    assert not failures, "golden mismatch (cache on):\n" + "\n".join(failures)


def test_cancellation_sums_are_held_to_the_field_norm(golden):
    """A pair reorder may flip v_sum's sign; a real shift still fails."""
    import copy

    sums = golden["checksums"]
    assert abs(sums["v_sum"]) < 1e-12 < sums["v_l2"]
    reordered = copy.deepcopy(golden)
    reordered["checksums"]["v_sum"] = -sums["v_sum"]
    assert not _compare(reordered, golden)
    shifted = copy.deepcopy(golden)
    shifted["checksums"]["v_sum"] += 10 * RTOL * sums["v_l2"]
    assert any("v_sum" in line for line in _compare(shifted, golden))
    shifted = copy.deepcopy(golden)
    shifted["checksums"]["rho_sum"] *= 1 + 10 * RTOL
    assert any("rho_sum" in line for line in _compare(shifted, golden))


def test_golden_conservation_is_physical(golden):
    """The stored run itself must conserve mass/momentum to roundoff."""
    steps = golden["steps"]
    mass = {s["total_mass"] for s in steps}
    assert len(mass) == 1, "mass must be exactly constant"
    for s in steps:
        assert s["momentum_norm"] < 1e-12


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_run(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
