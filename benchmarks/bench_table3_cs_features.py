"""Table 3 — computer-science feature matrix of the parent codes.

Each CS feature named in the table is executed: the three domain
decompositions on a real particle set, the load-balancing behaviours
(static cut vs work-weighted cut vs overlap model) and checkpoint/restart.
The benchmark target times one decomposition round for all three codes.
"""

import numpy as np

from repro.core.presets import CHANGA, SPHFLOW, SPHYNX
from repro.model.codes import CODES
from repro.model.decomposition import decompose
from repro.model.feature_tables import table3_cs_features
from repro.model.overlap import local_inner_outer
from repro.tree.box import Box


def _decompose_all(x, box):
    out = {}
    for preset in (SPHYNX, CHANGA, SPHFLOW):
        d = decompose(CODES[preset.label].domain_decomposition, x, 16, box)
        out[preset.label] = d.imbalance()
    return out


def test_table3_cs_features(benchmark, report, tmp_path):
    table = table3_cs_features()
    for required in (
        "Straightforward", "Space Filling Curve",
        "Orthogonal Recursive Bisection", "None (static)", "Dynamic",
        "Local-Inner-Outer", "64-bit", "Fortran 90", "C++",
        "MPI+OpenMP", "25,000", "110,000", "37,000",
    ):
        assert required in table, f"Table 3 entry missing: {required}"
    report("table3_cs_features", table)

    # Exercise checkpoint/restart ("Yes" for all three codes).
    from repro.core.simulation import Simulation
    from repro.ics.square_patch import SquarePatchConfig, make_square_patch
    from repro.resilience.checkpoint import (
        Checkpoint,
        read_checkpoint,
        write_checkpoint,
    )
    from repro.timestepping.criteria import TimestepParams

    particles, box_p, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(
        particles, box_p, eos,
        config=SPHFLOW.with_(n_neighbors=25,
                             timestep_params=TimestepParams(use_energy_criterion=False)),
    )
    sim.run(n_steps=1)
    write_checkpoint(tmp_path / "c", Checkpoint.of_simulation(sim))
    assert read_checkpoint(tmp_path / "c").step_index == 1

    # Local-inner-outer overlap actually hides communication.
    t = local_inner_outer(np.array([5.0]), np.array([1.0]), np.array([3.0]))
    assert t.saving()[0] == 3.0

    rng = np.random.default_rng(2)
    x = rng.random((100_000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    imb = benchmark(_decompose_all, x, box)
    assert all(v < 1.05 for v in imb.values())
