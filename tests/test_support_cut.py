"""The support cut: one list rule for both backends, bitwise neutral.

Each rate evaluation cuts the padded Verlet list down to the pairs
inside ``kernel.support * max(h_i, h_j)`` once, with the final ``h``,
and every pair phase runs over the cut — on the compiled path the lower
half (``j <= i``) the h iteration emits (``CompiledOps.adapt``), on
numpy ``Pairs.support``.

* one predicate — the compiled emission is the ``j <= i`` part of the
  numpy cut, array for array, on lattices with pairs exactly at the
  cutoff and on random clouds, periodic and open;
* bitwise neutrality — a numpy run whose phases read the padded list
  instead of the cut ends on the same bits and the same ``dt`` sequence,
  through list builds and cache hits, in 1-D, 2-D and 3-D;
* the Verlet cache is bitwise neutral on numpy — a run ends on the
  ``result_digest`` pinned when the cache could still be switched off
  and both settings gave it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.backend import available_backends, select_backend
from repro.core.particles import ParticleSystem
from repro.kernels.registry import make_kernel
from repro.service.runner import build_simulation
from repro.service.spec import JobSpec
from repro.sph.smoothing import SmoothingConfig
from repro.tree.box import Box
from repro.tree import neighborlist
from repro.tree.cellgrid import cell_grid_search
from repro.tree.pairs import Pairs, support_cut


def _lattice(dim, rng):
    """A lattice of spacing 1/8 with ``h`` = one spacing: axis neighbours
    two spacings apart sit exactly at ``support * h`` (exact binary
    fractions, so both backends compute ``r`` without rounding)."""
    side, spacing = 8, 0.125
    axes = [np.arange(side) * spacing + spacing / 2] * dim
    x = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return x, np.full(x.shape[0], spacing)


def _cloud(dim, rng):
    n, (h_lo, h_hi) = {1: (60, (0.03, 0.05)), 2: (200, (0.05, 0.08)),
                       3: (400, (0.07, 0.1))}[dim]
    return rng.random((n, dim)), rng.uniform(h_lo, h_hi, size=n)


@pytest.mark.skipif(not available_backends()["cffi"], reason="no C toolchain on this host")
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [_lattice, _cloud], ids=["lattice", "cloud"])
def test_numpy_cut_equals_compiled_cut(make, dim, periodic, rng):
    x, h = make(dim, rng)
    n = x.shape[0]
    box = Box.cube(0.0, 1.0, dim=dim, periodic=periodic)
    padded = cell_grid_search(x, 3.2 * h, box, mode="symmetric")
    p = ParticleSystem(x=x, v=np.zeros((n, dim)), m=np.full(n, 1.0 / n), h=h)
    kernel = make_kernel("cubic-spline")
    got, record = support_cut(p, padded, kernel, box)
    assert record is not None
    assert 0 < got.n_pairs < padded.n_pairs
    # The emission of the compiled h iteration (over finished rows).
    n = x.shape[0]
    want = select_backend("cffi").ops.adapt(
        x, h, None, padded.as_int32(), box, None, SmoothingConfig(),
        np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int32), kernel.support,
    )
    lower = got.indices <= got.pair_i()
    assert np.array_equal(
        want.offsets, np.searchsorted(np.flatnonzero(lower), got.offsets)
    )
    assert np.array_equal(want.indices, got.indices[lower])
    if make is _lattice:
        # The lattice has pairs exactly on the cutoff, and they are kept.
        assert np.any(record.r == kernel.support * h[0])


FIELDS = ("x", "v", "h", "rho", "u", "p", "a", "du")


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("square-patch", {"side": 8, "layers": 6}),  # 3-D, periodic
        ("evrard", {"n_target": 300}),  # 3-D, open
        ("gresho", {"nx": 12}),  # 2-D
        ("sod", {"n_target": 100}),  # 1-D
    ],
)
def test_phases_over_padded_list_give_the_same_bits(scenario, overrides, monkeypatch):
    """A cut that keeps every pair (``Pairs.support`` returns the padded
    list's record unchanged) leaves every field and every ``dt`` as they
    are, through list builds and cache hits (a thin skin forces both)."""
    monkeypatch.setattr(neighborlist, "SKIN", 0.1)
    spec = JobSpec(scenario, overrides=overrides, preset="sph-exa")

    def run():
        sim, _ = build_simulation(spec)
        try:
            # The patch's first rebuild (a displacement miss) is step 9's.
            sim.run(n_steps=10)
        finally:
            sim.close()
        stats = sim.report().neighbor_cache
        assert stats["builds"] >= 2 and stats["hits"] >= 1
        state = {name: getattr(sim.particles, name).copy() for name in FIELDS}
        return state, [s.dt for s in sim.history]

    cut, cut_dts = run()
    with monkeypatch.context() as patch:
        patch.setattr(Pairs, "support", lambda self: self)
        padded, padded_dts = run()
    assert padded_dts == cut_dts
    for name in FIELDS:
        assert np.array_equal(padded[name], cut[name]), name


def _pinned(*cases):
    """``(scenario, overrides, digest)`` cases, identified by scenario
    alone: regenerating a digest renames no test."""
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize(
    "scenario, overrides, digest",
    _pinned(
        ("square-patch", {"side": 10, "layers": 10}, "e2e76f6ef3c2"),
        ("evrard", {"n_target": 400}, "d4f9b5a3f2d8"),
        ("sod", {"n_target": 100}, "a40ad4c75e0b"),
        ("noh", {"n_target": 100}, "4f1ccedeed3e"),
        ("gresho", {"nx": 12}, "ec3ff79dbc4a"),
        ("kelvin-helmholtz", {"nx": 12}, "98f1335726e9"),
        ("wind-cloud", {}, "36aca697eeaa"),
        ("sedov", {}, "6a18d3d8cb07"),
    ),
)
def test_verlet_cache_is_bitwise_neutral_on_numpy(scenario, overrides, digest):
    """Ten ``sph-exa`` steps end on the digest pinned with the Verlet cache
    off and on: the h iteration counts exactly off the cached list, rows
    are canonical either way, and the padding is cut before the phases."""
    outcome = api.run(JobSpec(
        scenario, overrides=overrides, n_steps=10, preset="sph-exa"
    ))
    assert outcome.result_digest[:12] == digest


@pytest.mark.parametrize(
    "scenario, overrides, digest",
    _pinned(
        ("square-patch", {"side": 10, "layers": 10}, "cf4530ea8346"),
        ("evrard", {"n_target": 400}, "328e7054cd50"),
        ("sod", {"n_target": 100}, "4aefc672dff4"),
        ("gresho", {"nx": 12}, "2a7dfd4af527"),
    ),
)
def test_standard_gradient_path_is_pinned_on_numpy(scenario, overrides, digest):
    """The ``changa`` preset runs the standard kernel gradients (``sph-exa``
    runs IAD only), so these digests pin ``grad_j`` end to end — read off
    the reverse pair on whole-list records (pinned with the cache off and
    on)."""
    outcome = api.run(JobSpec(
        scenario, overrides=overrides, n_steps=10, preset="changa"
    ))
    assert outcome.result_digest[:12] == digest


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_step_stats_count_the_support_cut(backend):
    """``StepStats.n_pairs`` and ``mean_neighbors`` count the pairs the
    phases computed — the support cut of the final list, every ordered
    pair and the diagonal — not the padded Verlet list it was cut from."""
    if backend == "cffi" and not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    spec = JobSpec(
        "square-patch", test=True, n_neighbors=30, backend=backend,
        preset="sph-exa",
    )
    sim, _ = build_simulation(spec)
    try:
        sim.run(n_steps=2)
    finally:
        sim.close()
    assert sim.backend.name == backend
    p = sim.particles
    cut, _ = support_cut(p, sim._nlist, sim.kernel, sim.box)
    stats = sim.history[-1]
    assert stats.n_pairs == cut.n_pairs < sim._nlist.n_pairs
    assert stats.mean_neighbors == cut.n_pairs / p.n
