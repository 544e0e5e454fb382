"""Micro-benchmark of the fault-tolerance machinery.

Three costs matter for the paper's checkpoint-restart story and the
supervised pool:

* checkpoint write latency (atomic tmp+fsync+rename of the full particle
  state) — the ``C`` that Young's formula trades against the MTBF;
* checkpoint restore latency (read + CRC verify + restore_into);
* recovery overhead — wall-time of a pooled run with one injected worker
  crash versus the same run unharmed.

Results land in ``benchmarks/results/resilience_micro.json``.  Shrink
``REPRO_BENCH_MICRO_SIDE`` for smoke runs.
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
from repro.resilience.chaos import ChaosEvent, ChaosPolicy
from repro.resilience.checkpoint import (
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.timestepping.steppers import TimestepParams

#: cube side; 31^3 = 29 791 ~ 3e4 particles.  Shrink via env for smoke runs.
N_SIDE = int(os.environ.get("REPRO_BENCH_MICRO_SIDE", "31"))
WORKERS = 2
REPEATS = 3
N_STEPS = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _make_sim(exec_config: ExecConfig = ExecConfig()) -> Simulation:
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


def test_recovery_overhead_one_crash(report, results_dir):
    """Wall-time cost of one worker kill + respawn + chunk re-issue."""

    def _run(chaos):
        sim = _make_sim(ExecConfig(workers=WORKERS, chaos=chaos))
        try:
            t0 = time.perf_counter()
            sim.run(n_steps=N_STEPS)
            elapsed = time.perf_counter() - t0
            stats = sim.report().recovery
        finally:
            sim.close()
        return elapsed, stats

    t_clean, _ = _run(None)
    t_faulty, stats = _run(
        ChaosPolicy([ChaosEvent(step=1, phase="E", action="kill", worker=0)])
    )
    assert stats["crashes"] == 1 and stats["respawns"] == 1

    overhead = t_faulty - t_clean
    record = {
        "case": f"square patch, {N_STEPS} pooled steps, one phase-E worker kill",
        "workers": WORKERS,
        "cpu_count": _usable_cores(),
        "t_clean_s": t_clean,
        "t_faulty_s": t_faulty,
        "recovery_overhead_s": overhead,
        "overhead_fraction": overhead / t_clean if t_clean > 0 else float("inf"),
        "crashes": stats["crashes"],
        "respawns": stats["respawns"],
        "reissues": stats["reissues"],
        **host_stamp(),
    }
    existing = {}
    out = results_dir / "resilience_micro.json"
    if out.exists():
        existing = json.loads(out.read_text())
    existing["recovery"] = record
    out.write_text(json.dumps(existing, indent=2) + "\n")
    report(
        "resilience_recovery",
        (
            f"recovery overhead ({N_STEPS} steps, {WORKERS} workers, "
            f"1 injected crash)\n"
            f"  clean run:  {t_clean:8.3f} s\n"
            f"  faulty run: {t_faulty:8.3f} s "
            f"(+{overhead:.3f} s, {stats['reissues']} chunks re-issued)"
        ),
    )
