"""Ablation — multipole order: SPHYNX's 4-pole vs ChaNGa's 16-pole.

Table 1 records the two gravity flavours; this bench quantifies the
trade: accuracy against direct summation vs evaluation cost, across
monopole / quadrupole / octupole / hexadecapole at fixed opening angle.
Expected shape: the MAC is geometric, so every order does the same
interactions; errors fall monotonically with order.  Times (min of 3,
numpy reference beside the compiled op where one is available) are
reported, not asserted: M2P is a few ms of the call, so the order of
two wall-clock samples says nothing.

A second table follows the compiled call (node moments + walk + both
interaction lists, on a prebuilt tree as the driver calls it) up the
Evrard sizes of ROADMAP item 3 — N = 738, 8 216 and 31 102 at the
``sph-exa`` preset's theta = 0.5, hexadecapole — in ms per call and
us per particle, with the interactions per particle and the peak
allocation of the node moments (compiled op and numpy reference).
"""

import time
import tracemalloc

import numpy as np

from repro.backend import select_backend
from repro.gravity import barnes_hut_gravity, direct_gravity
from repro.gravity.multipole import compute_node_moments
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.io.reporting import format_table
from repro.tree.octree import Octree

ORDERS = {"monopole (2-pole)": 0, "quadrupole (4-pole)": 2,
          "octupole (8-pole)": 3, "hexadecapole (16-pole)": 4}

#: Evrard ``n_target`` values that give N = 738, 8 216 and 31 102.
EVRARD_TARGETS = (800, 8000, 30000)


def _min_of_3(run):
    best, res = np.inf, None
    for _ in range(3):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def _mean_rel_error(acc, a_ref):
    ref_norm = np.linalg.norm(a_ref, axis=1)
    return float(np.mean(np.linalg.norm(acc - a_ref, axis=1) / ref_norm))


def _order_sweep(ops, n=4000, theta=0.6):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 3))
    x *= (1.0 / (1.0 + np.linalg.norm(x, axis=1)))[:, None]
    m = rng.uniform(0.5, 1.5, n)
    a_ref, _ = direct_gravity(x, m)
    rows, errs, work = [], [], []
    for name, order in ORDERS.items():
        kw = dict(theta=theta, order=order, leaf_size=32)
        t_numpy, res = _min_of_3(lambda: barnes_hut_gravity(x, m, **kw))
        err = _mean_rel_error(res.acc, a_ref)
        t_compiled = "-"
        if ops is not None:
            dt, res_c = _min_of_3(lambda: barnes_hut_gravity(x, m, ops=ops, **kw))
            assert (res_c.n_p2p, res_c.n_m2p) == (res.n_p2p, res.n_m2p)
            # The compiled sums differ from the reference at roundoff.
            assert abs(_mean_rel_error(res_c.acc, a_ref) - err) <= 1e-9 * err
            t_compiled = f"{dt * 1e3:.1f}"
        rows.append([name, f"{err:.2e}", f"{t_numpy * 1e3:.1f}", t_compiled,
                     f"{res.n_p2p}", f"{res.n_m2p}"])
        errs.append(err)
        work.append((res.n_p2p, res.n_m2p))
    table = format_table(
        ["multipole order", "mean rel acc error", "numpy [ms]",
         "compiled [ms]", "P2P", "M2P"],
        rows,
        title=f"Ablation: gravity multipole order (theta={theta}, N={n})",
    )
    return errs, work, table


def _peak_kb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def _evrard_scaling(ops, theta=0.5, order=4):
    rows = []
    for n_target in EVRARD_TARGETS:
        p, box, _ = make_evrard(EvrardConfig(n_target=n_target))
        x, m, n = p.x, p.m, p.n
        tree = Octree.build(x, box)
        kw = dict(theta=theta, order=order, softening=0.05 * float(p.h.mean()),
                  tree=tree, ops=ops)
        dt, res = _min_of_3(lambda: barnes_hut_gravity(x, m, **kw))
        peak_op = _peak_kb(lambda: compute_node_moments(tree, x, m, order, ops=ops))
        peak_np = _peak_kb(lambda: compute_node_moments(tree, x, m, order))
        rows.append([
            f"{n}", f"{dt * 1e3:.2f}", f"{dt / n * 1e6:.2f}",
            f"{res.n_p2p / n:.0f}", f"{res.n_m2p / n:.0f}",
            f"{peak_op:.0f}", f"{peak_np:.0f}",
        ])
    return format_table(
        ["N", "compiled [ms/call]", "[us/particle]", "P2P/particle",
         "M2P/particle", "moments op peak [KiB]", "numpy moments peak [KiB]"],
        rows,
        title=(f"Compiled Barnes-Hut per call on Evrard (theta={theta}, "
               f"order={order}, tree prebuilt, moments included)"),
    )


def test_ablation_gravity_order(benchmark, report):
    ops = select_backend("auto").ops

    def run():
        errs, work, table = _order_sweep(ops)
        if ops is not None:
            table += "\n\n" + _evrard_scaling(ops)
        return errs, work, table

    errs, work, table = benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablation_gravity_order", table)
    # Accuracy strictly improves with order...
    assert errs[0] > errs[1] > errs[2] > errs[3]
    # ...by more than an order of magnitude from 2-pole to 16-pole...
    assert errs[0] / errs[3] > 10.0
    # ...at exactly the same interactions: order changes what an M2P
    # costs, never which pairs the walk accepts.
    assert len(set(work)) == 1
