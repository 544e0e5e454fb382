"""Ablation — global vs individual time stepping (Tables 1-2).

On the Evrard profile the free-fall time spans decades between the core
and the halo; individual (block) time stepping updates each particle at
its own rung.  This bench quantifies the particle-update saving and the
price: per-substep load imbalance across ranks (the multi-time-stepping
imbalance Section 4 calls out).
"""

import numpy as np

from repro.core.presets import CHANGA
from repro.io.reporting import format_table
from repro.model.cluster import ClusterModel
from repro.model.machine import PIZ_DAINT
from repro.timestepping.steppers import RungSchedule


def _rung_accounting(workload):
    model = ClusterModel(workload, CHANGA, PIZ_DAINT, 192, kappa=1e-8)
    sched = RungSchedule(dt_base=1.0, rung=model.rung)
    n = workload.n
    updates_individual = sched.total_particle_updates()
    updates_global = n * sched.n_substeps
    counts = sched.active_counts()
    return model, sched, updates_individual, updates_global, counts


def test_ablation_timestepping(benchmark, report, evrard_workload):
    model, sched, upd_ind, upd_glob, counts = benchmark.pedantic(
        lambda: _rung_accounting(evrard_workload), rounds=1, iterations=1
    )
    hist = np.bincount(model.rung, minlength=sched.max_rung + 1)
    rows = [[b, int(hist[b]), f"1/{1 << (sched.max_rung - b)} dt_base"
             .replace("1/1 ", "1 ")]
            for b in range(sched.max_rung + 1)]
    table = format_table(
        ["rung", "particles", "substep period"],
        rows,
        title="Ablation: individual time-step rungs (Evrard, ChaNGa preset)",
    )
    saving = upd_glob / upd_ind
    extra = (
        f"\nparticle updates per base step: individual={upd_ind:,} "
        f"vs global-at-finest-dt={upd_glob:,}  (saving {saving:.1f}x)"
        f"\nactive particles per substep: min={min(counts):,} "
        f"max={max(counts):,} (the imbalance source)"
    )
    report("ablation_timestepping", table + extra)
    # Individual stepping must actually save work on this profile...
    assert saving > 2.0
    # ...while creating strongly uneven substeps.
    assert min(counts) < 0.5 * max(counts)
    # The square patch, by contrast, degenerates to a single rung.
    from repro.model.workloads import build_workload

    sq = build_workload("square", 50_000)
    m_sq = ClusterModel(sq, CHANGA, PIZ_DAINT, 192, kappa=1e-8)
    assert m_sq.substeps == 1
