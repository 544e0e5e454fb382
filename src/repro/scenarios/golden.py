"""Golden-master helpers shared by the conformance tests and the tools.

A golden record pins a short deterministic run of a scenario: per-step
conservation totals plus final-state checksums (sum and L2 norm per
particle field).  Comparison is field-by-field with a tight relative
tolerance that absorbs pair-ordering roundoff and BLAS/platform
variation but nothing physical.

One implementation serves three consumers: the parametrized conformance
suite (``tests/test_scenarios_conformance.py``), the regeneration tool
(``tools/regen_goldens.py``) and ad-hoc debugging — so a record written
by one is bitwise-compatible with what the others expect.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..core.simulation import Simulation
from .registry import Scenario

__all__ = [
    "GOLDEN_RTOL",
    "GOLDEN_ATOL",
    "golden_path",
    "run_scenario_record",
    "record_run",
    "compare_records",
    "write_golden",
    "load_golden",
]

GOLDEN_RTOL = 1e-9  # absorbs pair-ordering roundoff and platform variation
GOLDEN_ATOL = 1e-14

CHECKSUM_FIELDS = ("x", "v", "rho", "u", "h", "du")


def golden_path(name: str, root: Optional[Path] = None) -> Path:
    """Canonical location of a scenario's golden file.

    Default root is ``tests/golden/`` next to the repository's test
    suite (resolved relative to this file's package).
    """
    if root is None:
        root = Path(__file__).resolve().parents[3] / "tests" / "golden"
    return root / f"scenario_{name.replace('-', '_')}.json"


def _checksums(sim: Simulation) -> Dict[str, float]:
    p = sim.particles
    arrays = {name: getattr(p, name) for name in CHECKSUM_FIELDS}
    sums: Dict[str, float] = {}
    for name, arr in arrays.items():
        sums[f"{name}_sum"] = float(arr.sum())
        sums[f"{name}_l2"] = float(np.sqrt((arr.astype(np.float64) ** 2).sum()))
    return sums


def record_run(sim: Simulation, case: str) -> dict:
    """Snapshot a finished run into a golden-comparable record."""
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
        "case": case,
        "n_particles": sim.particles.n,
        "n_steps": len(steps),
        "final_time": sim.time,
        "steps": steps,
        "checksums": _checksums(sim),
    }


def run_scenario_record(scenario: Scenario, run_config=None, n_steps=None) -> dict:
    """Run a scenario's golden configuration for ``n_steps`` (default: its
    ``golden_steps``) and return its record."""
    sim = scenario.make_simulation(test=True, run_config=run_config)
    try:
        sim.run(n_steps=scenario.golden_steps if n_steps is None else n_steps)
        return record_run(sim, case=f"scenario:{scenario.name}")
    finally:
        sim.close()


def compare_records(
    actual: dict,
    golden: dict,
    rtol: float = GOLDEN_RTOL,
    atol: float = GOLDEN_ATOL,
) -> List[str]:
    """Field-by-field comparison; returns human-readable failure strings.

    A checksum ``<field>_sum`` adds signed entries that may cancel (the
    patch's ``v_sum`` is -5.7e-14), so any legal reordering of the pair
    sums moves it by roundoff of the field's *norm*, not of the sum: its
    absolute tolerance is ``rtol`` times the sibling ``<field>_l2``.
    """
    failures: List[str] = []

    def check(path: str, a, g, scale: float = 0.0):
        if isinstance(g, dict):
            for key in g:
                if key not in a:
                    failures.append(f"{path}.{key}: missing from actual record")
                    continue
                norm = g.get(f"{key[:-4]}_l2", 0.0) if key.endswith("_sum") else 0.0
                check(f"{path}.{key}" if path else key, a[key], g[key], norm)
        elif isinstance(g, list):
            for k, (ai, gi) in enumerate(zip(a, g)):
                check(f"{path}[{k}]", ai, gi)
            if len(a) != len(g):
                failures.append(f"{path}: length {len(a)} != {len(g)}")
        elif isinstance(g, float):
            if not np.isclose(a, g, rtol=rtol, atol=max(atol, rtol * scale)):
                failures.append(f"{path}: {a!r} != golden {g!r} (rtol={rtol})")
        elif a != g:
            failures.append(f"{path}: {a!r} != golden {g!r}")

    check("", actual, golden)
    return failures


def write_golden(record: dict, path: Path) -> None:
    """Write a record as a committed golden file (stable JSON layout)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")


def load_golden(path: Path) -> dict:
    """Read a committed golden file."""
    return json.loads(path.read_text())
