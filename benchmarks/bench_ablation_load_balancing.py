"""Ablation — dynamic load balancing (Table 4: "DLB with self-scheduling").

Two comparisons on an Evrard-shaped skewed work distribution:

1. self-scheduling schemes (static/SS/CSS/GSS/FAC2/AWF) with dispatch
   overhead — the classic trade the paper's refs [3, 16, 27] study;
2. static vs dynamic (work-weighted) domain decomposition in the cluster
   model — the cross-rank analogue.
"""

import numpy as np

from repro.core.presets import SPHYNX
from repro.io.reporting import format_table
from repro.model.cluster import ClusterModel
from repro.model.codes import CODES
from repro.model.machine import PIZ_DAINT
from repro.model.selfsched import SCHEMES, simulate_self_scheduling


def _skewed_tasks(n=4096):
    """Per-bucket SPH work with an Evrard-like central concentration."""
    rng = np.random.default_rng(21)
    r = rng.random(n) ** 0.5
    return (1.0 / np.maximum(r, 0.05)) ** 0.7


def _selfsched_sweep():
    tasks = _skewed_tasks()
    rows, results = [], {}
    for scheme in SCHEMES:
        res = simulate_self_scheduling(tasks, 16, scheme, dispatch_overhead=0.02)
        results[scheme] = res
        rows.append([
            scheme, f"{res.makespan:.1f}", f"{res.load_balance:.3f}",
            f"{res.efficiency:.3f}", res.n_chunks,
        ])
    table = format_table(
        ["scheme", "makespan", "load balance", "efficiency", "chunks"],
        rows,
        title="Ablation: self-scheduling schemes, 16 workers, skewed SPH work",
    )
    return results, table


def test_ablation_self_scheduling(benchmark, report):
    results, table = benchmark.pedantic(_selfsched_sweep, rounds=1, iterations=1)
    report("ablation_load_balancing", table)
    # Dynamic factoring beats static chunking on skewed work...
    assert results["fac2"].makespan < results["static"].makespan
    # ...and beats per-task SS once dispatch overhead is charged.
    assert results["fac2"].makespan < results["ss"].makespan
    assert results["fac2"].load_balance > 0.95


def test_ablation_static_vs_dynamic_decomposition(benchmark, report, evrard_workload):
    """Cross-rank DLB: work-weighted cuts vs count cuts on Evrard."""
    def sweep():
        rows = []
        times = {}
        for lb in ("static", "dynamic"):
            code = CODES[SPHYNX.label].with_(
                load_balancing=lb, domain_decomposition="sfc-hilbert"
            )
            model = ClusterModel(evrard_workload, SPHYNX, PIZ_DAINT, 384,
                                 kappa=1e-8, code=code)
            bd = model.simulate_step()
            imb = float(bd.compute_time.max() / bd.compute_time.mean())
            times[lb] = bd.step_time
            rows.append([lb, f"{bd.step_time:.3f}", f"{imb:.3f}"])
        return rows, times

    rows, times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["load balancing", "modeled t/step [s]", "compute imbalance"],
        rows,
        title="Ablation: static vs dynamic decomposition (Evrard, 384 cores)",
    )
    report("ablation_static_vs_dynamic", table)
    assert times["dynamic"] <= times["static"] * 1.02
