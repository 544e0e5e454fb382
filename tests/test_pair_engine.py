"""Pair-engine tests: flattened reductions, fused kernels, invalidation.

Covers the zero-redundancy pair engine end to end:

* ``reduce_pairs`` — the single flattened bincount must be *bitwise*
  equal to the historical per-column loop;
* fused kernel evaluation (``value_and_gradient`` / ``*_from_q`` with
  ``out=``) — bitwise equal to the separate allocating calls;
* :class:`~repro.sph.pair_engine.PairContext` lifetime — sharing inside
  one open evaluation, nothing across two (moved ``x`` / ``h`` / ``v``),
  Verlet-list rebuild, row-sliced binds, the ``h``-written drop;
* driver integration — engine on vs off is bit-for-bit identical,
  threaded runs with any worker count and cache setting match the
  serial path, steady-state steps allocate nothing, an exception inside
  a phase closes the evaluation, and the compiled path issues the
  pinned number of ``rp_*`` calls per step and keeps nothing per pair.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.backend import available_backends
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.kernels.registry import make_kernel
from repro.sph.pair_engine import PairContext, ScratchArena
from repro.sph.viscosity import ViscosityParams
from repro.timestepping.steppers import TimestepParams
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import NeighborList, reduce_pairs


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def cloud(rng):
    """Positions + neighbour list of a 300-particle periodic cloud."""
    n = 300
    x = rng.random((n, 3))
    h = np.full(n, 0.09)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    nlist = cell_grid_search(x, 2.0 * h, box, mode="symmetric")
    return x, h, box, nlist


# ----------------------------------------------------------------------
# Flattened reductions (satellite 1)
# ----------------------------------------------------------------------
def test_reduce_pairs_flattened_matches_per_column_loop_bitwise(cloud, rng):
    _, _, _, nlist = cloud
    pair_i = nlist.pair_i()
    for shape in [(nlist.n_pairs,), (nlist.n_pairs, 3), (nlist.n_pairs, 2, 2)]:
        values = rng.normal(size=shape)
        got = nlist.reduce(values)
        # Reference: the historical one-bincount-per-column loop.
        if values.ndim == 1:
            ref = np.bincount(pair_i, weights=values, minlength=nlist.n)
        else:
            flat = values.reshape(values.shape[0], -1)
            cols = [
                np.bincount(pair_i, weights=flat[:, c], minlength=nlist.n)
                for c in range(flat.shape[1])
            ]
            ref = np.stack(cols, axis=1).reshape((nlist.n,) + values.shape[1:])
        assert got.shape == ref.shape
        assert np.array_equal(got, ref), f"shape {shape} not bitwise equal"


def test_reduce_pairs_precomputed_flat_index(cloud, rng):
    _, _, _, nlist = cloud
    pair_i = nlist.pair_i()
    values = rng.normal(size=(nlist.n_pairs, 3))
    flat_index = (pair_i[:, None] * 3 + np.arange(3, dtype=np.int64)).ravel()
    a = reduce_pairs(pair_i, nlist.n, values)
    b = reduce_pairs(pair_i, nlist.n, values, flat_index=flat_index)
    assert np.array_equal(a, b)


def test_reduce_into(cloud, rng):
    _, _, _, nlist = cloud
    values = rng.normal(size=(nlist.n_pairs, 3))
    out = np.empty((nlist.n, 3))
    got = nlist.reduce_into(values, out)
    assert got is out
    assert np.array_equal(out, nlist.reduce(values))
    with pytest.raises(ValueError):
        nlist.reduce_into(values, np.empty((nlist.n, 2)))


def test_pair_i_is_memoized(cloud):
    _, _, _, nlist = cloud
    assert nlist.pair_i() is nlist.pair_i()  # satellite 2


# ----------------------------------------------------------------------
# Fused kernel evaluation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["cubic-spline", "wendland-c2", "sinc"])
@pytest.mark.parametrize("dim", [2, 3])
def test_fused_value_and_gradient_bitwise(name, dim, rng):
    kernel = make_kernel(name)
    n = 400
    dx = rng.normal(size=(n, dim)) * 0.1
    r = np.sqrt(np.einsum("ij,ij->i", dx, dx))
    r[0] = 0.0  # exercise the singular-origin branch
    dx[0] = 0.0
    h = rng.uniform(0.05, 0.15, size=n)

    w_ref = kernel.value(r, h, dim)
    g_ref = kernel.gradient(dx, r, h, dim)
    w, g = kernel.value_and_gradient(dx, r, h, dim)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(g, g_ref)

    # out= paths must run the same op sequence, hence the same bits.
    w_out = np.empty(n)
    g_out = np.empty((n, dim))
    scratch = np.empty(n)
    w2, g2 = kernel.value_and_gradient(
        dx, r, h, dim, w_out=w_out, grad_out=g_out, scratch=scratch
    )
    assert w2 is w_out and g2 is g_out
    assert np.array_equal(w_out, w_ref)
    assert np.array_equal(g_out, g_ref)

    dwdh_ref = kernel.h_derivative(r, h, dim)
    q = r / h
    dwdh = kernel.h_derivative_from_q(q, h, dim, out=np.empty(n))
    assert np.array_equal(dwdh, dwdh_ref)


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------
def test_scratch_arena_grow_only_reuse():
    arena = ScratchArena()
    a = arena.take("buf", (100,))
    base = arena._buffers["buf"]
    allocated = arena.stats.bytes_allocated
    b = arena.take("buf", (80,))  # smaller: served from the same storage
    assert arena._buffers["buf"] is base
    assert arena.stats.bytes_allocated == allocated
    assert arena.stats.bytes_reused == 80 * 8
    assert b.shape == (80,)
    c = arena.take("buf", (200,))  # larger: regrow
    assert arena.stats.bytes_allocated > allocated
    assert c.shape == (200,)
    assert a.shape == (100,)  # old views keep their shapes


def test_scratch_arena_dtype_change_reallocates():
    arena = ScratchArena()
    arena.take("buf", (10,), np.float64)
    i = arena.take("buf", (10,), np.int64)
    assert i.dtype == np.int64


# ----------------------------------------------------------------------
# PairContext lifetime
# ----------------------------------------------------------------------
def test_geometry_reuse_and_position_drift(cloud):
    x, h, box, nlist = cloud
    ctx = PairContext()

    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        assert ctx.stats.geometry_computes == 1
        dx_ref, r_ref = nlist.pair_geometry(x, box)
        assert np.array_equal(ctx.dx, dx_ref)
        assert np.array_equal(ctx.r, r_ref)

        ctx.bind(x, nlist, box)  # same evaluation + same list object -> reuse
        assert ctx.stats.geometry_computes == 1
        assert ctx.stats.geometry_reuses == 1

    # Drift: the next evaluation sees the moved x on the same list object.
    x2 = x + 0.01
    with ctx.evaluation():
        ctx.bind(x2, nlist, box)
        assert ctx.stats.geometry_computes == 2
        dx2, r2 = nlist.pair_geometry(x2, box)
        assert np.array_equal(ctx.dx, dx2)
        assert np.array_equal(ctx.r, r2)


def test_product_invalidation_on_h_change(cloud):
    x, h, box, nlist = cloud
    kernel = make_kernel("cubic-spline")
    ctx = PairContext()
    i, _ = nlist.pairs()

    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        w1 = ctx.w_i(kernel, h, 3)
        assert np.array_equal(w1, kernel.value(ctx.r, h[i], 3))
        assert ctx.w_i(kernel, h, 3) is w1  # memoized by name
        w1 = w1.copy()  # the live view will be overwritten by the recompute

        # h re-adaptation inside the evaluation: same geometry, h written.
        h2 = h * 1.05
        ctx.h_written()
        ctx.bind(x, nlist, box)
        assert ctx.stats.geometry_reuses >= 1  # geometry survived
        w2 = ctx.w_i(kernel, h2, 3)
        assert np.array_equal(w2, kernel.value(ctx.r, h2[i], 3))
        assert not np.array_equal(w1, w2)
        w2 = w2.copy()

    # And a second evaluation after h moved again recomputes too.
    h3 = h * 0.9
    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        w3 = ctx.w_i(kernel, h3, 3)
        assert np.array_equal(w3, kernel.value(ctx.r, h3[i], 3))
        assert not np.array_equal(w2, w3)


def test_velocity_token_invalidates_vel_ij(cloud, rng):
    x, h, box, nlist = cloud
    ctx = PairContext()
    v = rng.normal(size=x.shape)
    i, j = nlist.pairs()
    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        v1 = ctx.vel_ij(v)
        assert np.array_equal(v1, v[i] - v[j])
        assert ctx.vel_ij(v) is v1
    v_new = v * 2.0  # kick: the next evaluation reads the new velocities
    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        assert np.array_equal(ctx.vel_ij(v_new), v_new[i] - v_new[j])


def test_verlet_rebuild_invalidates_by_identity(cloud):
    """A rebuilt list (same evaluation, different object) must not be trusted."""
    x, h, box, nlist = cloud
    ctx = PairContext()
    with ctx.evaluation():
        ctx.bind(x, nlist, box)
        rebuilt = NeighborList(nlist.offsets.copy(), nlist.indices.copy())
        ctx.bind(x, rebuilt, box)  # same pair count — new object
    assert ctx.stats.geometry_computes == 2
    assert ctx.stats.geometry_reuses == 0


def test_untracked_context_never_reuses_across_binds(cloud):
    x, h, box, nlist = cloud
    ctx = PairContext()  # no evaluation open
    ctx.bind(x, nlist, box)
    ctx.bind(x, nlist, box)
    assert ctx.stats.geometry_computes == 2


def test_context_row_slices(cloud):
    """A context bound to a row range: the slice's geometry, reused
    across phases on the same list object, keyed on the range; opened
    (and closed) together with the whole-list context."""
    x, h, box, nlist = cloud
    lo, hi = 50, 180
    whole, ctx = PairContext(), PairContext()

    with whole.evaluation([ctx]):
        assert ctx.is_open
        ctx.bind(x, nlist, box, rows=(lo, hi))
        assert (ctx.lo, ctx.hi) == (lo, hi)
        sub = nlist.row_slice(lo, hi)
        dx_ref, r_ref = sub.pair_geometry(x, box, row_offset=lo)
        assert np.array_equal(ctx.dx, dx_ref)
        assert np.array_equal(ctx.r, r_ref)
        assert np.array_equal(ctx.i, sub.pair_i() + lo)
        assert np.array_equal(ctx.j, sub.indices)

        # Next phase of the evaluation: same list object, same rows.
        ctx.bind(x, nlist, box, rows=(lo, hi))
        assert ctx.stats.geometry_reuses == 1
        assert ctx.stats.geometry_computes == 1

        # A different row range is its own geometry.
        ctx.bind(x, nlist, box, rows=(0, 50))
        assert ctx.stats.geometry_computes == 2
    assert not ctx.is_open

    # A second evaluation after moving x recomputes the slice.
    x2 = x + 0.01
    with whole.evaluation([ctx]):
        ctx.bind(x2, nlist, box, rows=(0, 50))
        assert ctx.stats.geometry_computes == 3
        ref = nlist.row_slice(0, 50).pair_geometry(x2, box)[1]
        assert np.array_equal(ctx.r, ref)


def test_evaluation_closes_on_raise(cloud):
    x, h, box, nlist = cloud
    ctx = PairContext()
    with pytest.raises(RuntimeError, match="boom"):
        with ctx.evaluation():
            ctx.bind(x, nlist, box)
            raise RuntimeError("boom")
    assert not ctx.is_open
    ctx.bind(x, nlist, box)  # nothing of the failed evaluation is shared
    ctx.bind(x, nlist, box)
    assert ctx.stats.geometry_reuses == 0


# ----------------------------------------------------------------------
# Driver integration
# ----------------------------------------------------------------------
TS = TimestepParams(use_energy_criterion=False)
FIELDS = ("x", "v", "rho", "u", "p", "a", "du", "h")


def _run_sim(exec_config, n_steps=3, engine_off=False, **config_kw):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=6))
    config = SimulationConfig().with_(
        n_neighbors=30, timestep_params=TS, **config_kw
    )
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=exec_config),
    )
    if engine_off:
        # The reference: every phase builds an ephemeral ``ctx=None``
        # context per call (the Verlet cache, if any, stays on).
        sim.degrade_to_serial()
    try:
        sim.run(n_steps=n_steps)
        state = {name: getattr(sim.particles, name).copy() for name in FIELDS}
        return state, [s.dt for s in sim.history], sim
    finally:
        sim.close()


@pytest.mark.parametrize(
    "config_kw",
    [
        {"gradients": "standard"},
        {"gradients": "iad", "grad_h": True},
    ],
    ids=["standard", "iad+gradh"],
)
def test_engine_on_off_bitwise_parity_serial(config_kw):
    on, dts_on, sim_on = _run_sim(ExecConfig(), **config_kw)
    off, dts_off, sim_off = _run_sim(
        ExecConfig(), engine_off=True, **config_kw
    )
    assert dts_on == dts_off
    for name in FIELDS:
        assert np.array_equal(on[name], off[name]), (
            f"field {name!r} not bitwise identical with the engine on"
        )
    # Engine on actually reused work; engine off reports all zeros.
    assert sim_on.report().pair_engine["geometry_reuses"] > 0
    assert sim_off.report().pair_engine["geometry_computes"] == 0
    assert all(s.pair_geometry_computes == 0 for s in sim_off.history)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("cache", [False, True], ids=["fresh", "verlet"])
def test_pool_engine_parity(workers, cache):
    # Same cache setting on both sides: the Verlet list's reuse schedule
    # legitimately shifts summation roundoff, which is not what this
    # test probes — it isolates the threads + pair-engine path.
    ref, ref_dts, _ = _run_sim(
        ExecConfig(neighbor_cache=cache), n_steps=2, engine_off=True
    )
    got, dts, sim = _run_sim(
        ExecConfig(workers=workers, neighbor_cache=cache), n_steps=2
    )
    assert dts == ref_dts
    for name in FIELDS:
        np.testing.assert_allclose(
            got[name], ref[name], rtol=1e-12, atol=0.0,
            err_msg=f"workers={workers} cache={cache}: field {name!r}",
        )
    # The threads actually exercised their slice contexts.
    assert sim.report().pair_engine["geometry_computes"] > 0


def test_steady_state_steps_allocate_nothing():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=6))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(neighbor_cache=True)),
    )
    try:
        sim.run(n_steps=5)
    finally:
        sim.close()
    last = sim.history[-1]
    assert last.pair_bytes_allocated == 0, (
        "steady-state step still touched the allocator"
    )
    assert last.pair_bytes_reused > 0
    # On a Verlet-cache hit the whole step runs off ONE geometry pass.
    hit_steps = [
        s for s in sim.history[1:] if s.pair_geometry_computes == 1
    ]
    assert hit_steps, "no step reached the 1-geometry-pass steady state"
    assert all(s.pair_geometry_reuses >= 3 for s in hit_steps)


def test_restore_invalidates_pair_context(tmp_path):
    from repro.resilience.checkpoint import (
        Checkpoint,
        read_checkpoint,
        write_checkpoint,
    )

    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    sim = Simulation(particles, box, eos, config=config)
    sim.run(n_steps=2)
    path = tmp_path / "cp.npz"
    write_checkpoint(path, Checkpoint.of_simulation(sim))
    sim.run(n_steps=1)
    third = {name: getattr(sim.particles, name).copy() for name in FIELDS}
    # Between evaluations the context is closed and holds no list.
    assert not sim._pair_ctx.is_open
    assert sim._pair_ctx._nlist_ref is None
    read_checkpoint(path).restore_into(sim)
    # The restored run replays the third step: nothing of the
    # pre-restore evaluation is shared with it.
    sim.run(n_steps=1)
    assert sim.history[-1].pair_geometry_computes >= 1
    for name in FIELDS:
        assert np.array_equal(getattr(sim.particles, name), third[name]), name


def test_exception_inside_a_phase_closes_the_evaluation(monkeypatch):
    import repro.core.phase_executor as phase_executor

    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    run_config = RunConfig(exec=ExecConfig(neighbor_cache=True))
    sim = Simulation(particles, box, eos, config=config, run_config=run_config)
    ref = Simulation(
        particles.copy(), box, eos, config=config, run_config=run_config
    )
    ref.degrade_to_serial()  # the context-free reference

    def broken(*args, **kwargs):
        raise RuntimeError("phase failed")

    for s in (sim, ref):
        s.compute_rates()
        with monkeypatch.context() as patch:
            patch.setattr(phase_executor, "compute_forces", broken)
            with pytest.raises(RuntimeError, match="phase failed"):
                s.compute_rates()
    assert not sim._pair_ctx.is_open
    assert sim._pair_ctx._nlist_ref is None

    # Move the particles under the (still valid) Verlet list: the next
    # evaluation succeeds and reads the moved positions.
    for s in (sim, ref):
        s.particles.x[:] += 0.01 * s.particles.h[:, None]
        s.compute_rates()
    for name in FIELDS:
        assert np.array_equal(
            getattr(sim.particles, name), getattr(ref.particles, name)
        ), name


# ----------------------------------------------------------------------
# Compiled path: the list is the only per-pair state, counted at the
# library boundary
# ----------------------------------------------------------------------
STANDARD_GRADH_BALSARA = dict(
    gradients="standard", grad_h=True, viscosity=ViscosityParams(use_balsara=True)
)


@pytest.mark.parametrize(
    "config_kw, phase_ops",
    [
        ({}, {"rp_iad": 1, "rp_density": 1, "rp_div_curl": 0}),
        (STANDARD_GRADH_BALSARA,
         {"rp_iad": 0, "rp_density": 2, "rp_div_curl": 1}),
    ],
    ids=["iad", "standard+gradh+balsara"],
)
def test_compiled_ops_per_cache_hit_step(config_kw, phase_ops, rp_calls):
    """On cffi one adaptation is one op whatever its sweep count, one
    evaluation cuts the support list once, and each pair phase the
    configuration runs is one row-kernel call (density twice with
    grad-h: ``W`` sums, then ``dW/dh`` sums) — nothing per pair is
    computed ahead or kept, so nothing is counted as reused."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=6))
    config = SimulationConfig().with_(
        n_neighbors=30, timestep_params=TS, **config_kw
    )
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(backend="cffi", neighbor_cache=True)),
    )
    # Step 0 of a cold run: two evaluations, the first of which builds.
    sim.run(n_steps=1)
    cold = sim.report().neighbor_cache
    counts = collections.Counter(name for name, _ in rp_calls)
    assert cold["builds"] == cold["searches"] == 1
    assert counts["rp_walk"] == 2  # count pass + fill pass of one search
    assert counts["rp_pairs_within"] == 1
    assert counts["rp_adapt"] == cold["adaptations"] == 2
    assert counts["rp_support_cut"] == 2

    del rp_calls[:]
    sim.run(n_steps=1)
    report = sim.report()
    assert report.neighbor_cache["hits"] == cold["hits"] + 1  # a hit step
    assert report.neighbor_cache["sweeps"] == cold["sweeps"] + 10
    counts = collections.Counter(name for name, _ in rp_calls)
    assert counts["rp_adapt"] == 1  # not 1 + sweeps
    assert counts["rp_support_cut"] == 1
    for op, calls in phase_ops.items():
        assert counts[op] == calls, op
    assert counts["rp_forces"] == 1
    assert counts["rp_walk"] == counts["rp_pairs_within"] == 0
    assert sum(counts.values()) == 3 + sum(phase_ops.values())

    assert sim._nlist.indices.dtype == np.int32
    sim.close()


@pytest.mark.parametrize("workers", [0, 2])
def test_compiled_path_keeps_nothing_per_pair_but_the_list(workers):
    """After cffi steps (a build and hits) no array at all — let alone a
    float64 one of pair length — is reachable from the places per-pair
    state could live: the driver's pair context, the executor's slice
    contexts, the process's op table; and the pair engine moved no
    byte."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    from repro.backend import select_backend
    from tests.test_concurrent_simulations import _reachable_arrays

    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=6))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(
            backend="cffi", neighbor_cache=True, workers=workers,
        )),
    )
    try:
        sim.run(n_steps=2)
        assert len(sim._phases.contexts) == workers
        owners = (
            sim._pair_ctx, *sim._phases.contexts, select_backend("cffi").ops
        )
        for owner in owners:
            assert _reachable_arrays(owner) == []
        pair_engine = sim.report().pair_engine
        assert pair_engine == dict.fromkeys(pair_engine, 0)
        assert all(s.pair_bytes_allocated == 0 for s in sim.history)
    finally:
        sim.close()
