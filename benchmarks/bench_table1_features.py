"""Table 1 — physics feature matrix of the three parent codes.

Regenerates the table from the preset configurations; every named
algorithm is instantiated through the public API while building the rows,
so a passing bench certifies the features exist and are selectable.
The ``benchmark`` target measures the cost of exercising one full feature
row (kernel + gradients + volume elements) on a small particle set.
"""

import numpy as np

from repro.core.feature_tables import table1_physics_features
from repro.core.presets import CHANGA, SPHFLOW, SPHYNX
from repro.gradients.iad import compute_iad_matrices
from repro.kernels import make_kernel
from repro.sph.density import compute_density
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.core.particles import ParticleSystem


def _exercise_preset(preset) -> float:
    """Run the preset's kernel/gradient/volume choices on 1k particles."""
    rng = np.random.default_rng(0)
    n = 1000
    p = ParticleSystem(
        x=rng.random((n, 3)), v=np.zeros((n, 3)), m=np.full(n, 1.0 / n),
        h=np.full(n, 0.08),
    )
    box = Box.cube(0.0, 1.0, dim=3)
    kernel = make_kernel(preset.kernel)
    nl = cell_grid_search(p.x, 2 * p.h, box, mode="symmetric")
    if preset.volume_elements == "generalized":
        # The generalized estimator reads a previous (standard) density.
        compute_density(p, nl, kernel, box)
    compute_density(p, nl, kernel, box, volume_elements=preset.volume_elements)
    if preset.gradients == "iad":
        compute_iad_matrices(p, nl, kernel, box)
    return float(p.rho.mean())


def test_table1_feature_matrix(benchmark, report):
    table = table1_physics_features()
    # The paper's Table 1 entries, verified present.
    for required in (
        "SPHYNX", "ChaNGa", "SPH-flow",
        "sinc", "wendland-c2", "IAD", "Kernel derivatives",
        "Generalized", "Standard", "Global", "Individual", "Adaptive",
        "Tree Walk", "Multipoles (4-pole)", "Multipoles (16-pole)", "No",
    ):
        assert required in table, f"Table 1 entry missing: {required}"
    report("table1_features", table)
    results = benchmark(lambda: [_exercise_preset(p) for p in (SPHYNX, CHANGA, SPHFLOW)])
    assert all(r > 0 for r in results)
