"""Golden-master regression: 5 square-patch steps against stored results.

The golden file in ``tests/golden/`` pins down per-step conservation
totals and final-state checksums of a short, deterministic square-patch
run (the scenario's test configuration, two steps past its own golden).
Any change to kernels, neighbour search, h adaptation, time stepping or
the execution layer that shifts physics beyond tight tolerances fails
here with a field-by-field report.

Every run goes through the Verlet cache, which is bitwise neutral: a
run holds the golden whichever of its evaluations hit the cache.

Regenerate (after an *intentional* physics change), with every other
golden, by:

    PYTHONPATH=src python tools/regen_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios import compare_records, get_scenario, run_scenario_record

GOLDEN_PATH = Path(__file__).parent / "golden" / "square_patch_5step.json"
N_STEPS = 5
RTOL = 1e-9  # absorbs pair-ordering roundoff and BLAS/platform variation


def _run() -> dict:
    return run_scenario_record(get_scenario("square-patch"), n_steps=N_STEPS)


def _compare(actual: dict, golden: dict) -> list[str]:
    # Cancellation sums (v_sum = -5.7e-14 here) are held to RTOL times the
    # field's l2 norm, everything else to RTOL of its own value.
    return compare_records(actual, golden, rtol=RTOL)


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden file missing: {GOLDEN_PATH} "
            "(regenerate with: PYTHONPATH=src python tools/regen_goldens.py)"
        )
    return json.loads(GOLDEN_PATH.read_text())


def test_square_patch_matches_golden(golden):
    failures = _compare(_run(), golden)
    assert not failures, "golden mismatch:\n" + "\n".join(failures)


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

