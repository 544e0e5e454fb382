"""Micro-benchmark of the fault-tolerance machinery.

Two costs matter for the paper's checkpoint-restart story:

* checkpoint write latency (atomic tmp+fsync+rename of the full particle
  state) — the ``C`` that Young's formula trades against the MTBF;
* checkpoint restore latency (read + CRC verify + restore_into).

Results land in ``benchmarks/results/resilience_micro.json``.  Shrink
``REPRO_BENCH_MICRO_SIDE`` for smoke runs.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _scaling_common import host_stamp
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.resilience.checkpoint import (
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.timestepping.steppers import TimestepParams

#: cube side; 31^3 = 29 791 ~ 3e4 particles.  Shrink via env for smoke runs.
N_SIDE = int(os.environ.get("REPRO_BENCH_MICRO_SIDE", "31"))
REPEATS = 3


def _make_sim() -> Simulation:
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=N_SIDE, layers=N_SIDE)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    return Simulation(particles, box, eos, config=config)


def test_checkpoint_write_restore_latency(report, results_dir, tmp_path):
    sim = _make_sim()
    try:
        sim.run(n_steps=1)
        path = tmp_path / "bench.ckpt"
        t_write = np.inf
        nbytes = 0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            nbytes = write_checkpoint(path, Checkpoint.of_simulation(sim))
            t_write = min(t_write, time.perf_counter() - t0)
        t_read = np.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cp = read_checkpoint(path)
            t_read = min(t_read, time.perf_counter() - t0)
        t_restore = np.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            read_checkpoint(path).restore_into(sim)
            t_restore = min(t_restore, time.perf_counter() - t0)
        n = sim.particles.n
        assert cp.particles.n == n
    finally:
        sim.close()

    record = {
        "case": "square patch, full-state checkpoint round trip",
        "n_particles": n,
        "repeats": REPEATS,
        "checkpoint_bytes": nbytes,
        "t_write_s": t_write,
        "t_read_verify_s": t_read,
        "t_restore_s": t_restore,
        "write_mb_per_s": nbytes / t_write / 1e6,
        **host_stamp(),
    }
    (results_dir / "resilience_micro.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    report(
        "resilience_micro",
        (
            f"resilience micro-benchmark (N={n}, "
            f"{nbytes / 1e6:.1f} MB checkpoint)\n"
            f"  atomic write:        {t_write * 1e3:8.2f} ms "
            f"({record['write_mb_per_s']:.0f} MB/s)\n"
            f"  read + CRC verify:   {t_read * 1e3:8.2f} ms\n"
            f"  full restore:        {t_restore * 1e3:8.2f} ms"
        ),
    )
    assert t_write > 0.0 and np.isfinite(t_write)
