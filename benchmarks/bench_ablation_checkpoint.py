"""Ablation — checkpoint interval and multilevel checkpointing (Table 4).

Sweeps the checkpoint interval around the Young/Daly optimum under
injected fail-stop failures, and compares single-level against two-level
checkpointing overheads.  Expected: measured waste is minimized near the
closed-form optimum, and the two-level scheme undercuts the best
single-level one when fast checkpoints cover most failures.
"""

import numpy as np

from repro.io.reporting import format_table
from repro.model.failures import simulate_checkpointing
from repro.model.interval import (
    TwoLevelConfig,
    daly_interval,
    two_level_intervals,
    young_interval,
)

COST, MTBF, WORK, RESTART = 5.0, 1500.0, 40_000.0, 10.0


def _measure(interval, trials=25):
    total = 0.0
    for t in range(trials):
        rng = np.random.default_rng(7000 + t)
        total += simulate_checkpointing(
            WORK, interval, COST, MTBF, RESTART, rng
        ).total_time
    return total / trials


def _interval_sweep():
    w_young = young_interval(COST, MTBF)
    w_daly = daly_interval(COST, MTBF)
    factors = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
    rows, measured = [], {}
    for f in factors:
        interval = f * w_young
        t = _measure(interval)
        measured[f] = t
        tag = " <- Young optimum" if f == 1.0 else ""
        rows.append([f"{interval:8.1f}", f"{f:4.2f}", f"{t:10.1f}{tag}"])
    table = format_table(
        ["interval [s]", "x Young", "mean run time [s]"],
        rows,
        title=(
            f"Ablation: checkpoint interval (C={COST}s, MTBF={MTBF}s, "
            f"work={WORK:.0f}s; Young={w_young:.1f}s, Daly={w_daly:.1f}s)"
        ),
    )
    return measured, table


def test_ablation_checkpoint_interval(benchmark, report):
    measured, table = benchmark.pedantic(_interval_sweep, rounds=1, iterations=1)
    report("ablation_checkpoint_interval", table)
    # The Young point beats both extremes of the sweep.
    assert measured[1.0] < measured[0.1]
    assert measured[1.0] < measured[10.0]
    # And sits within a few percent of the best sampled point.
    best = min(measured.values())
    assert measured[1.0] < 1.05 * best


def test_ablation_multilevel(benchmark, report):
    cfg = TwoLevelConfig(cost_fast=1.0, cost_slow=25.0, mtbf=MTBF,
                         fast_coverage=0.85)
    w_fast, w_slow = benchmark.pedantic(
        lambda: two_level_intervals(cfg), rounds=1, iterations=1
    )
    # Overhead model: checkpoints per unit time x cost, per level.
    two_level_overhead = cfg.cost_fast / w_fast + cfg.cost_slow / w_slow
    single = young_interval(cfg.cost_slow, MTBF)
    single_overhead = cfg.cost_slow / single
    lines = [
        "Ablation: two-level vs single-level checkpointing",
        f"  fast level : C={cfg.cost_fast}s every {w_fast:.1f}s "
        f"(covers {cfg.fast_coverage:.0%} of failures)",
        f"  slow level : C={cfg.cost_slow}s every {w_slow:.1f}s",
        f"  two-level checkpoint overhead : {two_level_overhead:.4f}",
        f"  single-level (slow only)      : {single_overhead:.4f}",
    ]
    report("ablation_multilevel", "\n".join(lines))
    # Cheap fast checkpoints allow a *lower* total overhead than pushing
    # everything through the slow level.
    assert two_level_overhead < 2.0 * single_overhead
    assert w_fast < w_slow
