#!/usr/bin/env python3
"""Three-code comparison on the rotating square patch (the Section 5 idea).

"Comparing results of different hydrodynamical codes to the same initial
conditions has been proved to be highly beneficial" — this example runs
the SPHYNX, ChaNGa and SPH-flow presets on identical square-patch initial
conditions, then compares their physics (conservation, rotation fidelity)
and their per-phase wall-clock profile from the Extrae-like tracer.

Run:  python examples/code_comparison.py
"""

import numpy as np

from repro import (
    CHANGA,
    SPHFLOW,
    SPHYNX,
    Simulation,
    SquarePatchConfig,
    make_square_patch,
)
from repro.core.phases import Phase
from repro.io.reporting import format_table
from repro.observability import self_times
from repro.timestepping import TimestepParams

N_STEPS = 4


def rotation_error(sim) -> float:
    """Mean deviation from rigid rotation in the patch interior."""
    p = sim.particles
    r2d = np.hypot(p.x[:, 0], p.x[:, 1])
    interior = r2d < 0.25
    vx = 5.0 * p.x[interior, 1]
    vy = -5.0 * p.x[interior, 0]
    err = np.hypot(p.v[interior, 0] - vx, p.v[interior, 1] - vy)
    return float(err.mean() / (5.0 * 0.25))


def main() -> None:
    rows = []
    phase_rows = []
    for preset in (SPHYNX, CHANGA, SPHFLOW):
        particles, box, eos = make_square_patch(
            SquarePatchConfig(side=14, layers=7)
        )
        sim = Simulation(
            particles, box, eos,
            config=preset.with_(
                n_neighbors=40,
                timestep_params=TimestepParams(use_energy_criterion=False),
            ),
        )
        sim.run(n_steps=N_STEPS)
        drift = sim.conservation_drift()
        rows.append([
            preset.label,
            preset.kernel,
            preset.gradients,
            f"{drift['momentum']:.1e}",
            f"{drift['energy']:.1e}",
            f"{rotation_error(sim):.3f}",
        ])
        # Per-phase profile (the Figure-4 information, serially measured),
        # in self time: B's search span nests inside C's h iteration.
        events = sim.tracer.events
        own = dict.fromkeys((p.letter for p in Phase), 0.0)
        for e, t in zip(events, self_times(events)):
            if e.phase in own:
                own[e.phase] += t
        total = sum(own.values())
        shares = [f"{100 * own[p.letter] / total:.0f}%" for p in Phase]
        phase_rows.append([preset.label] + shares)

    print(format_table(
        ["code", "kernel", "gradients", "|dp|/p", "|dE|/E", "rot. err"],
        rows,
        title=f"Square patch after {N_STEPS} steps, {14 * 14 * 7} particles",
    ))
    print()
    print(format_table(
        ["code"] + [p.letter for p in Phase],
        phase_rows,
        title="Per-phase share of compute time (Algorithm 1 phases A-J)",
    ))
    print("\nphase legend:")
    for p in Phase:
        print(f"  {p.letter}: {p.description}")


if __name__ == "__main__":
    main()
