"""Ablation — domain decomposition methods (Tables 3-4).

Compares the three parent codes' decompositions (slabs, SFC, ORB) plus
the block-index baseline on both test geometries: work balance, halo
volume (the communication the network model charges) and the resulting
modeled step time at a fixed scale.  Expected: ORB/Hilbert minimize
halos; slabs pay an O(N^(2/3)) surface; block-index is catastrophic.
"""

from repro.core.presets import SPH_EXA
from repro.io.reporting import format_table
from repro.model.cluster import ClusterModel
from repro.model.codes import CODES
from repro.model.decomposition import DECOMPOSITION_METHODS, decompose
from repro.model.halo import estimate_halo
from repro.model.machine import PIZ_DAINT

RANKS = 64


def _sweep(workload):
    rows = []
    halo_means = {}
    for method in DECOMPOSITION_METHODS:
        d = decompose(method, workload.x, RANKS, workload.box)
        h = estimate_halo(workload.x, workload.support, workload.box, d)
        halo = float(h.recv_totals().mean())
        halo_means[method] = halo
        code = CODES[SPH_EXA.label].with_(
            domain_decomposition=method, load_balancing="static"
        )
        model = ClusterModel(workload, SPH_EXA, PIZ_DAINT,
                             RANKS * 12, kappa=1e-8, code=code)
        t = model.simulate_step().step_time
        rows.append([
            method, f"{d.imbalance():.3f}", f"{halo:,.0f}",
            f"{float(h.partners().mean()):.1f}", f"{t:.3f}",
        ])
    table = format_table(
        ["method", "count imbalance", "mean halo/rank", "partners",
         "modeled t/step [s]"],
        rows,
        title=f"Ablation: domain decomposition ({workload.name}, {RANKS} ranks)",
    )
    return halo_means, table


def test_ablation_decomposition_square(benchmark, report, square_workload):
    halos, table = benchmark.pedantic(
        lambda: _sweep(square_workload), rounds=1, iterations=1
    )
    report("ablation_decomposition_square", table)
    assert halos["orb"] < halos["uniform-slabs"]
    # The lattice generator emits x-major order, so block-index happens to
    # coincide with x-slabs on this workload; the locality-aware methods
    # must still beat that surface by a wide margin.
    assert halos["sfc-hilbert"] < halos["uniform-slabs"] / 2
    assert halos["sfc-hilbert"] <= 1.3 * halos["sfc-morton"]


def test_ablation_decomposition_evrard(benchmark, report, evrard_workload):
    halos, table = benchmark.pedantic(
        lambda: _sweep(evrard_workload), rounds=1, iterations=1
    )
    report("ablation_decomposition_evrard", table)
    assert halos["orb"] < halos["block-index"]
