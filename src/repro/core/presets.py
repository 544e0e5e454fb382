"""Parent-code presets: Tables 1 and 2 as runnable configurations.

Each preset drives the shared SPH engine with one parent code's algorithm
choices, so the benchmark harness can compare "SPHYNX vs ChaNGa vs
SPH-flow" on identical tests the way the paper does.  The SPH_EXA preset
is the Table 2 outlook column — the mini-app defaults.  Each code's Table
3/4 row (decomposition, load balancing, language, ...) is in
:mod:`repro.model.codes`, keyed by the preset's ``label``.

| Code     | Kernel    | Gradients | Volumes     | Stepping   | Gravity           |
|----------|-----------|-----------|-------------|------------|-------------------|
| SPHYNX   | sinc      | IAD       | generalized | global     | 4-pole (quad)     |
| ChaNGa   | Wendland/M4| kernel der| standard    | individual | 16-pole (hexadec) |
| SPH-flow | Wendland  | kernel der| standard    | adaptive   | none              |
"""

from __future__ import annotations

from typing import Dict

from .config import SimulationConfig

__all__ = ["SPHYNX", "CHANGA", "SPHFLOW", "SPH_EXA", "PRESETS", "get_preset"]

#: SPHYNX 1.3.1 (Table 1 row 1).
SPHYNX = SimulationConfig(
    label="SPHYNX",
    kernel="sinc-s5",
    gradients="iad",
    volume_elements="generalized",
    timestepping="global",
    gravity="quadrupole",  # "Multipoles (4-pole)"
)

#: ChaNGa 3.3 (Table 1 row 2).
CHANGA = SimulationConfig(
    label="ChaNGa",
    kernel="wendland-c2",  # "Wendland, M4 spline"
    gradients="standard",  # "Kernel derivatives"
    volume_elements="standard",
    timestepping="individual",
    gravity="hexadecapole",  # "Multipoles (16-pole)"
)

#: SPH-flow 17.6 (Table 1 row 3).
SPHFLOW = SimulationConfig(
    label="SPH-flow",
    kernel="wendland-c2",
    gradients="standard",
    volume_elements="standard",
    timestepping="adaptive",
    gravity=None,  # "No" self-gravity
)

#: The SPH-EXA mini-app outlook (Table 2) — defaults for new work.
SPH_EXA = SimulationConfig(
    label="SPH-EXA",
    kernel="sinc-s5",
    gradients="iad",
    volume_elements="generalized",
    timestepping="global",
    gravity="hexadecapole",  # Table 2: "Multipoles (16-pole)"
)

PRESETS: Dict[str, SimulationConfig] = {
    "sphynx": SPHYNX,
    "changa": CHANGA,
    "sph-flow": SPHFLOW,
    "sphflow": SPHFLOW,
    "sph-exa": SPH_EXA,
}


def get_preset(name: str) -> SimulationConfig:
    """Preset lookup by (case-insensitive) code name."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: sphynx, changa, sph-flow, sph-exa"
        ) from None
