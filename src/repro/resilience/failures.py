"""Fail-stop failure injection for the checkpoint-interval simulator.

"Faults, errors and failures have become the norm rather than the
exception in large-scale systems" (Section 4).  Bit flips in particle
arrays — the silent-data-corruption model the step guard's health check
is evaluated against — are :class:`~repro.resilience.chaos.NumericalFault`
with ``kind="bitflip"``.

* :class:`FailStopInjector` — exponential inter-arrival fail-stop events.
* :func:`simulate_checkpointing` — execute a fixed amount of work under
  periodic checkpointing and injected fail-stop failures; the tests
  validate Young/Daly against its measured waste.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FailStopInjector", "simulate_checkpointing"]


class FailStopInjector:
    """Exponential fail-stop process with mean time between failures."""

    def __init__(self, mtbf: float, rng: np.random.Generator | None = None) -> None:
        if mtbf <= 0.0:
            raise ValueError(f"mtbf must be positive, got {mtbf}")
        self.mtbf = float(mtbf)
        self.rng = rng or np.random.default_rng()

    def next_failure(self) -> float:
        """Time until the next failure."""
        return float(self.rng.exponential(self.mtbf))


@dataclass(frozen=True)
class CheckpointRunStats:
    """Outcome of a failure-injected checkpointed execution."""

    total_time: float
    useful_work: float
    n_failures: int
    n_checkpoints: int

    @property
    def waste_fraction(self) -> float:
        return 1.0 - self.useful_work / self.total_time if self.total_time else 0.0


def simulate_checkpointing(
    work: float,
    interval: float,
    checkpoint_cost: float,
    mtbf: float,
    restart_cost: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CheckpointRunStats:
    """Run ``work`` units under periodic checkpointing with failures.

    Progress made since the last completed checkpoint is lost at every
    failure; the run always finishes (failures only cost time).
    """
    if work <= 0.0 or interval <= 0.0:
        raise ValueError("work and interval must be positive")
    injector = FailStopInjector(mtbf, rng)
    t = 0.0
    done = 0.0  # durable progress (covered by a checkpoint)
    since_ckpt = 0.0  # volatile progress
    next_fail = injector.next_failure()
    n_failures = 0
    n_checkpoints = 0
    while done < work:
        # Work until the next checkpoint boundary or completion.
        segment = min(interval - since_ckpt, work - done - since_ckpt)
        # Time to the event that ends this segment (work or checkpoint end).
        end_work = t + segment
        if next_fail <= end_work:
            # Crash mid-segment: lose volatile progress, restart.
            t = next_fail + restart_cost
            since_ckpt = 0.0
            n_failures += 1
            next_fail = t + injector.next_failure()
            continue
        t = end_work
        since_ckpt += segment
        if done + since_ckpt >= work:
            done += since_ckpt
            since_ckpt = 0.0
            break
        # Take a checkpoint; a crash during it loses the interval too.
        if next_fail <= t + checkpoint_cost:
            t = next_fail + restart_cost
            since_ckpt = 0.0
            n_failures += 1
            next_fail = t + injector.next_failure()
            continue
        t += checkpoint_cost
        done += since_ckpt
        since_ckpt = 0.0
        n_checkpoints += 1
    return CheckpointRunStats(
        total_time=t,
        useful_work=work,
        n_failures=n_failures,
        n_checkpoints=n_checkpoints,
    )

