"""Micro-benchmark of the shared-memory pool: density + forces at N=3e4.

Times the phase-E + phase-G kernels (the dominant pair loops) serially
and through the 4-worker process pool, on identical state and neighbour
lists, and records wall times, speedup and the host's usable core count
into ``benchmarks/results/parallel_micro.json``.

The speedup target (>= 1.5x at 4 workers) is only reachable with >= 2
usable cores; on single-core hosts the pool measures pure orchestration
overhead, so the recorded ``cpu_count`` gates the interpretation (and the
assertion) rather than failing the suite on hardware it cannot use.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _scaling_common import host_stamp
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.timestepping.steppers import TimestepParams

#: cube side; 31^3 = 29 791 ~ 3e4 particles.  Shrink via env for smoke runs.
N_SIDE = int(os.environ.get("REPRO_BENCH_MICRO_SIDE", "31"))
WORKERS = 4
REPEATS = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _make_sim(exec_config: ExecConfig) -> Simulation:
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=N_SIDE, layers=N_SIDE)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    return Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=exec_config),
    )


def _time_density_forces(sim: Simulation) -> float:
    """Best-of-REPEATS wall time of one full rate evaluation (A-I)."""
    sim.compute_rates()  # warm: lists built, pool spawned, arena sized
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sim.compute_rates()
        best = min(best, time.perf_counter() - t0)
    return best


def test_parallel_micro_density_forces(report, results_dir):
    serial = _make_sim(ExecConfig())
    try:
        t_serial = _time_density_forces(serial)
        n = serial.particles.n
    finally:
        serial.close()

    pooled = _make_sim(ExecConfig(workers=WORKERS))
    try:
        t_pool = _time_density_forces(pooled)
    finally:
        pooled.close()

    cores = _usable_cores()
    speedup = t_serial / t_pool if t_pool > 0 else float("inf")
    record = {
        "case": "square patch, density+forces rate evaluation (phases A-I)",
        "n_particles": n,
        "workers": WORKERS,
        "repeats": REPEATS,
        "cpu_count": cores,
        "t_serial_s": t_serial,
        "t_pool_s": t_pool,
        "speedup": speedup,
        "target_speedup": 1.5,
        "target_applies": cores >= 2,
        **host_stamp(),
    }
    (results_dir / "parallel_micro.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    report(
        "parallel_micro",
        (
            f"parallel micro-benchmark (N={n}, workers={WORKERS}, "
            f"usable cores={cores})\n"
            f"  serial rate evaluation: {t_serial * 1e3:8.2f} ms\n"
            f"  pooled rate evaluation: {t_pool * 1e3:8.2f} ms\n"
            f"  speedup: {speedup:5.2f}x (target >= 1.5x on >= 2 cores)"
        ),
    )
    assert np.isfinite(t_pool) and t_pool > 0.0
    if cores >= 2:
        assert speedup >= 1.5, (
            f"pool speedup {speedup:.2f}x below the 1.5x acceptance "
            f"threshold on a {cores}-core host"
        )
