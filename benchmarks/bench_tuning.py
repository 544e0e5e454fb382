"""Autotuner quality bench: tuned-with-no-hands vs best hand-tuned.

The observability loop's acceptance claim is that the online autotuner,
given *no* manual input, lands within 5% of the best hand-tuned
configuration.  This bench makes that measurable: for each scenario it

1. sweeps the hand-tuned grid — every combination of the discrete
   execution knobs the ladder explores (backend x pair engine x Verlet
   cache; workers stays 0, matching the ladder on a small host) — and
   times each combination's steady step directly;
2. runs the autotuner cold (fresh ledger) on an identical simulation
   and lets it converge;
3. times the configuration the tuner adopted, in the same process with
   the same min-of-``TIMED_STEPS`` protocol, and records the ratio
   ``autotuned / best_hand_tuned``.

Everything lands in ``benchmarks/results/BENCH_tuning.json`` (host
-stamped like every bench record); ``check_tuning_gate.py`` asserts the
ratio and refuses cross-host baseline comparisons.

Set ``REPRO_BENCH_TUNING_SCENARIOS`` (comma-separated registry names)
to change the workloads; the default pair exercises one periodic shock
tube and one open blast wave.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _scaling_common import host_stamp
from repro.backend import available_backends
from repro.core.config import ExecConfig, RunConfig
from repro.scenarios import get_scenario
from repro.tuning import TuningConfig

SCENARIOS = tuple(
    os.environ.get("REPRO_BENCH_TUNING_SCENARIOS", "sod,sedov").split(",")
)
WARMUP_STEPS = 2
TIMED_STEPS = 3
EXPLORATION_BUDGET = 24
TARGET_RATIO = 1.05


def _grid() -> list:
    """The hand-tuned candidate grid (= the ladder's discrete knob space)."""
    backends = ["numpy"] + [
        n for n, ok in available_backends().items() if ok and n != "numpy"
    ]
    combos = []
    for backend in backends:
        for neighbor_cache in (True, False):
            combos.append(
                ExecConfig(
                    workers=0,
                    backend=backend,
                    neighbor_cache=neighbor_cache,
                )
            )
    return combos


def _steady_time(sim) -> float:
    """Best-of-``TIMED_STEPS`` step time after warmup, on a live driver."""
    for _ in range(WARMUP_STEPS):
        sim.step()
    best = np.inf
    for _ in range(TIMED_STEPS):
        t0 = time.perf_counter()
        sim.step()
        best = min(best, time.perf_counter() - t0)
    return best


def _knobs_dict(exec_cfg: ExecConfig) -> dict:
    return {
        "backend": exec_cfg.backend,
        "neighbor_cache": exec_cfg.neighbor_cache,
        "workers": exec_cfg.workers,
    }


def _measure_scenario(name: str, tmp_path) -> dict:
    scenario = get_scenario(name)

    hand = []
    for exec_cfg in _grid():
        sim = scenario.make_simulation(
            test=True, run_config=RunConfig(exec=exec_cfg)
        )
        try:
            hand.append((_steady_time(sim), exec_cfg))
        finally:
            sim.close()
    hand.sort(key=lambda pair: pair[0])
    best_hand_s, best_hand_cfg = hand[0]

    ledger = str(tmp_path / f"{name}-tuning.db")
    tuned_sim = scenario.make_simulation(
        test=True,
        run_config=RunConfig(
            tuning=TuningConfig(
                seed=0,
                steps_per_candidate=2,
                max_exploration_steps=EXPLORATION_BUDGET,
                knobs=("backend", "neighbor_cache"),
                ledger_path=ledger,
            )
        ),
    )
    try:
        tuned_sim.run(n_steps=1)  # instantiates the tuner
        while not tuned_sim._autotuner.done:
            tuned_sim.run(n_steps=1)
        tuning = tuned_sim.report().tuning
        autotuned_s = _steady_time(tuned_sim)
    finally:
        tuned_sim.close()

    return {
        "n_particles": tuned_sim.particles.n,
        "grid_size": len(hand),
        "best_hand_tuned_s": best_hand_s,
        "best_hand_tuned_knobs": _knobs_dict(best_hand_cfg),
        "autotuned_s": autotuned_s,
        "autotuned_knobs": tuning["recommendation"],
        "exploration_steps": tuning["explored_steps"],
        "ratio": autotuned_s / best_hand_s if best_hand_s > 0 else np.inf,
    }


def test_tuning_vs_hand_tuned(report, results_dir, tmp_path):
    rows = {name: _measure_scenario(name, tmp_path) for name in SCENARIOS}
    worst = max(r["ratio"] for r in rows.values())
    record = {
        "case": "autotuned (no manual input) vs best hand-tuned grid point",
        "scenarios": rows,
        "worst_ratio": worst,
        "target_ratio": TARGET_RATIO,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "cpu_count": os.cpu_count(),
        **host_stamp(),
    }
    (results_dir / "BENCH_tuning.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    lines = ["autotuner vs hand-tuned grid"]
    for name, r in rows.items():
        lines.append(
            f"  {name:8s}: hand {r['best_hand_tuned_s'] * 1e3:8.2f} ms/step "
            f"({r['best_hand_tuned_knobs']['backend']}, "
            f"cache={r['best_hand_tuned_knobs']['neighbor_cache']}) | "
            f"tuned {r['autotuned_s'] * 1e3:8.2f} ms/step "
            f"-> ratio {r['ratio']:.3f}"
        )
    lines.append(f"  worst ratio: {worst:.3f} (target <= {TARGET_RATIO})")
    report("BENCH_tuning", "\n".join(lines))

    for name, r in rows.items():
        assert np.isfinite(r["ratio"]), f"{name}: non-finite ratio"
