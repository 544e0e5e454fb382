#!/usr/bin/env python3
"""Fault-tolerant execution: checkpointing, a crash, SDC detection + healing.

Demonstrates the Table-4 resilience stack end to end on a live run:

1. compute the Young-optimal checkpoint interval for the (toy) failure
   model and checkpoint on that cadence;
2. "crash" mid-run, restore from the last checkpoint, and verify the
   resumed trajectory is bit-identical to an uninterrupted one;
3. inject a silent bit flip into a guarded run and show the step guard's
   health check flag it, roll back and retry to the same bits.

Run:  python examples/fault_tolerant_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SPHFLOW, Simulation, SquarePatchConfig, make_square_patch
from repro.core.config import RunConfig
from repro.model.interval import young_interval
from repro.resilience import (
    Checkpoint,
    GuardConfig,
    NumericalFault,
    read_checkpoint,
    write_checkpoint,
)
from repro.timestepping import TimestepParams


def fresh_sim(run_config: RunConfig | None = None) -> Simulation:
    particles, box, eos = make_square_patch(SquarePatchConfig(side=12, layers=6))
    return Simulation(
        particles, box, eos,
        config=SPHFLOW.with_(
            n_neighbors=35,
            timestep_params=TimestepParams(use_energy_criterion=False),
        ),
        run_config=run_config,
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="sph-ckpt-"))

    # --- 1. optimal checkpoint cadence --------------------------------
    step_cost, ckpt_cost, mtbf = 1.0, 0.2, 50.0  # toy numbers, in steps
    interval_steps = max(int(young_interval(ckpt_cost, mtbf) / step_cost), 1)
    print(f"Young-optimal cadence: checkpoint every {interval_steps} steps "
          f"(C={ckpt_cost}, MTBF={mtbf})")

    # --- 2. run, crash, restore, verify bit-identical resume ----------
    reference = fresh_sim()
    reference.run(n_steps=6)

    victim = fresh_sim()
    last_ckpt = None
    for step in range(1, 5):  # "crashes" after step 4
        victim.step()
        if step % interval_steps == 0:
            last_ckpt = workdir / f"step{step}.ckpt"
            write_checkpoint(last_ckpt, Checkpoint.of_simulation(victim))
            print(f"  checkpoint written at step {step}")
    print("  ... simulated crash! restoring from", last_ckpt.name)

    survivor = fresh_sim()
    read_checkpoint(last_ckpt).restore_into(survivor)
    survivor.run(n_steps=6 - survivor.step_index)
    identical = np.array_equal(survivor.particles.x, reference.particles.x)
    print(f"  resumed run matches uninterrupted run bit-for-bit: {identical}")
    assert identical

    # --- 3. silent data corruption, detected and healed ---------------
    guarded = fresh_sim(RunConfig(guard=GuardConfig()))
    guarded.run(n_steps=4)
    # The top exponent bit of one velocity component: a classic SDC
    # excursion, into the same element on every run.
    flip = NumericalFault(
        step=guarded.step_index, array="v", kind="bitflip", index=100, bit=62
    )
    flip.inject(guarded.particles)
    print(f"\ninjected bit flip: v[{flip.index}], bit {flip.bit}")
    with np.errstate(over="ignore", invalid="ignore"):
        guarded.run(n_steps=2)
    report = guarded.step_guard.report()
    for incident in report.incidents:
        for f in incident["findings"]:
            print(f"  step {incident['step']} health check: {f}")
    print(f"  {report.summary()}")
    assert report.failures, "SDC escaped detection"
    healed = np.array_equal(guarded.particles.x, reference.particles.x)
    print(f"  healed run matches uninterrupted run bit-for-bit: {healed}")
    assert healed
    print("OK: crash recovered exactly and corruption detected and healed")


if __name__ == "__main__":
    main()
