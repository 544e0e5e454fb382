#!/usr/bin/env python3
"""Strong-scaling study on the simulated machines (Figures 1-3 harness).

Sweeps one parent code over the paper's core counts on both Piz Daint and
MareNostrum 4 models, printing time-per-step, speedup and the POP
efficiency metrics.  The default (SPH-flow / square / 2e5 particles) runs
in seconds; pass the paper's full setup explicitly for the real thing.

Run:  python examples/scaling_study.py [code] [test] [n_particles]
e.g.: python examples/scaling_study.py sphynx evrard 1000000
"""

import sys

from repro.core.presets import get_preset
from repro.model.machine import MARENOSTRUM4, PIZ_DAINT
from repro.model.scaling import format_scaling_table, strong_scaling
from repro.model.workloads import build_workload


def main() -> None:
    code = sys.argv[1] if len(sys.argv) > 1 else "sph-flow"
    test = sys.argv[2] if len(sys.argv) > 2 else "square"
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 200_000
    preset = get_preset(code)
    cores = (12, 24, 48, 96, 192, 384, 768)

    print(f"strong scaling: {preset.label} / {test} / {n:,} particles")
    print("building workload geometry...")
    workload = build_workload(test, n)

    series = []
    for machine in (PIZ_DAINT, MARENOSTRUM4):
        print(f"simulating on {machine.name} "
              f"({machine.cores_per_node} cores/node, "
              f"{machine.network.name} {machine.network.topology})...")
        series.append(
            strong_scaling(preset, test, machine, cores, workload=workload,
                           n_steps=20)
        )

    print()
    print(format_scaling_table(series))
    print("\nPOP efficiency metrics (Piz Daint):")
    for p in series[0].points:
        print(f"  {p.pop.row()}")
    stall = next(
        (p for p in series[0].points if p.particles_per_core < 1e4), None
    )
    if stall is not None:
        print(
            f"\nnote: below ~10^4 particles/core (here from {stall.cores} "
            f"cores) strong scaling stalls — the effect Section 5.2 reports."
        )


if __name__ == "__main__":
    main()
