"""Ablation — multipole order: SPHYNX's 4-pole vs ChaNGa's 16-pole.

Table 1 records the two gravity flavours; this bench quantifies the
trade: accuracy against direct summation vs evaluation cost, across
monopole / quadrupole / octupole / hexadecapole at fixed opening angle.
Expected shape: the MAC is geometric, so every order does the same
interactions; errors fall monotonically with order.  Times (min of 3,
numpy reference beside the compiled op where one is available) are
reported, not asserted: M2P is a few ms of the call, so the order of
two wall-clock samples says nothing.
"""

import time

import numpy as np

from repro.backend import select_backend
from repro.gravity import barnes_hut_gravity, direct_gravity
from repro.io.reporting import format_table

ORDERS = {"monopole (2-pole)": 0, "quadrupole (4-pole)": 2,
          "octupole (8-pole)": 3, "hexadecapole (16-pole)": 4}


def _min_of_3(run):
    best, res = np.inf, None
    for _ in range(3):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def _order_sweep(n=4000, theta=0.6):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 3))
    x *= (1.0 / (1.0 + np.linalg.norm(x, axis=1)))[:, None]
    m = rng.uniform(0.5, 1.5, n)
    a_ref, _ = direct_gravity(x, m)
    ref_norm = np.linalg.norm(a_ref, axis=1)
    ops = select_backend("auto").ops
    if ops is not None and not ops.has_gravity:
        ops = None
    rows, errs, work = [], [], []
    for name, order in ORDERS.items():
        kw = dict(theta=theta, order=order, leaf_size=32)
        t_numpy, res = _min_of_3(lambda: barnes_hut_gravity(x, m, **kw))
        t_compiled = "-"
        if ops is not None:
            dt, res_c = _min_of_3(lambda: barnes_hut_gravity(x, m, ops=ops, **kw))
            assert (res_c.n_p2p, res_c.n_m2p) == (res.n_p2p, res.n_m2p)
            t_compiled = f"{dt * 1e3:.1f}"
        err = float(np.mean(np.linalg.norm(res.acc - a_ref, axis=1) / ref_norm))
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


def test_ablation_gravity_order(benchmark, report):
    errs, work, table = benchmark.pedantic(_order_sweep, rounds=1, iterations=1)
    report("ablation_gravity_order", table)
    # Accuracy strictly improves with order...
    assert errs[0] > errs[1] > errs[2] > errs[3]
    # ...by more than an order of magnitude from 2-pole to 16-pole...
    assert errs[0] / errs[3] > 10.0
    # ...at exactly the same interactions: order changes what an M2P
    # costs, never which pairs the walk accepts.
    assert len(set(work)) == 1
