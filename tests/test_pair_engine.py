"""Per-evaluation pair records: reductions, kernel products, lifetime.

The numpy phases share their per-pair work through one
:class:`~repro.tree.pairs.Pairs` record per rate evaluation:

* ``reduce_pairs`` — the single flattened bincount must be *bitwise*
  equal to the historical per-column loop;
* the record's kernel products — ``W``, ``grad W`` and ``dW/dh`` off one
  shared ``q = r/h`` — are bitwise the separate kernel calls;
* record lifetime — geometry and products computed once per record and
  read from the state at first use, a new record per state, row slices
  memoised on the whole-list record;
* the support cut — the phases' record holds the pairs inside kernel
  support, its geometry masked from the padded list's record;
* driver integration — every numpy phase returns the same bits with the
  evaluation's record as with ``pairs=None`` (over the cut or the padded
  list), a cache-hit evaluation runs off ONE geometry pass at any worker
  count, threaded runs with any worker count and
  cache setting are bitwise the serial run, nothing per pair outlives
  an evaluation on either backend (a raise included), and the compiled
  path issues the pinned number of ``rp_*`` calls per step.
"""

from __future__ import annotations

import collections
import types

import numpy as np
import pytest

import repro.core.phase_executor as phase_executor
import repro.core.simulation as simulation
from repro.backend import available_backends
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.particles import ParticleSystem
from repro.core.simulation import Simulation
from repro.gradients.iad import compute_iad_matrices
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.kernels.registry import make_kernel
from repro.sph.density import compute_density, grad_h_terms
from repro.sph.forces import compute_forces, velocity_divergence_curl
from repro.sph.viscosity import ViscosityParams, balsara_switch
from repro.timestepping.steppers import TimestepParams
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import (
    NeighborList,
    VerletNeighborCache,
    balanced_row_slices,
    reduce_pairs,
)
from repro.tree.pairs import Pairs


# ----------------------------------------------------------------------
# Fixtures and helpers
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


def _particles(x, h, rng):
    n, dim = x.shape
    return ParticleSystem(
        x=x.copy(), v=rng.normal(size=(n, dim)), m=np.full(n, 1.0 / n), h=h.copy()
    )


@pytest.fixture
def geometry_calls(monkeypatch):
    """Every pair-geometry pass (``NeighborList.pair_geometry``), by list
    length — the one routine all numpy geometry goes through."""
    calls = []
    real = NeighborList.pair_geometry

    def counted(self, *args, **kwargs):
        calls.append(self.n_pairs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NeighborList, "pair_geometry", counted)
    return calls


TS = TimestepParams(use_energy_criterion=False)
FIELDS = ("x", "v", "rho", "u", "p", "a", "du", "h")


def _patch_sim(exec_config, side=8, layers=6, **config_kw):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=side, layers=layers))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS, **config_kw)
    return Simulation(
        particles, box, eos, config=config, run_config=RunConfig(exec=exec_config)
    )


def _run_sim(exec_config, n_steps=3, **config_kw):
    sim = _patch_sim(exec_config, **config_kw)
    try:
        sim.run(n_steps=n_steps)
        state = {name: getattr(sim.particles, name).copy() for name in FIELDS}
        return state, [s.dt for s in sim.history], sim
    finally:
        sim.close()


def _float_arrays(root, min_size):
    """Attribute paths from ``root`` to float64 arrays of at least
    ``min_size`` entries, through instance attributes and builtin
    containers (modules, classes and functions are not entered)."""
    found, seen, todo = [], set(), [("sim", root)]
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType)
    while todo:
        path, obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.size >= min_size:
                found.append(path)
        elif isinstance(obj, dict):
            todo += [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += [(f"{path}[{k}]", v) for k, v in enumerate(obj)]
        elif hasattr(obj, "__dict__"):
            todo += [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    return found


def _pair_arrays(sim):
    """float64 arrays reachable from ``sim`` as long as the pairs of its
    smallest row slice — per-pair state left over from an evaluation."""
    nlist = sim._nlist
    slices = balanced_row_slices(nlist.offsets, max(sim._phases.workers, 1))
    smallest = min(int(nlist.offsets[hi] - nlist.offsets[lo]) for lo, hi in slices)
    # Longer than any per-particle array (the longest is n x 3 x 3).
    assert smallest > 9 * sim.particles.n
    return _float_arrays(sim, smallest)


def _support_oracle(p, nlist, kernel, box):
    """The pairs of ``nlist`` within ``kernel.support * max(h_i, h_j)``,
    rows in list order — the support cut, from a fresh geometry pass."""
    i, j = nlist.pairs()
    _, r = nlist.pair_geometry(p.x, box)
    keep = r <= np.maximum(p.h[i], p.h[j]) * kernel.support
    counts = np.bincount(i[keep], minlength=nlist.n)
    return NeighborList(np.concatenate([[0], np.cumsum(counts)]), j[keep])


def _same_list(a, b):
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.indices, b.indices)


class _Capture:
    """Records the ``pairs`` each numpy density call of the driver gets,
    with the driver's list at that moment and the support cut of it."""

    def __init__(self, sim, monkeypatch):
        self.seen = []
        real = phase_executor.compute_density

        def density(*args, **kwargs):
            held = sim._nlist
            cut = _support_oracle(sim.particles, held, sim.kernel, sim.box)
            self.seen.append((kwargs.get("pairs"), held, cut))
            return real(*args, **kwargs)

        monkeypatch.setattr(phase_executor, "compute_density", density)


# ----------------------------------------------------------------------
# Flattened reductions
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


def test_pair_i_is_memoized(cloud):
    _, _, _, nlist = cloud
    assert nlist.pair_i() is nlist.pair_i()


# ----------------------------------------------------------------------
# Kernel products off one shared q
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["cubic-spline", "wendland-c2", "sinc"])
@pytest.mark.parametrize("dim", [2, 3])
def test_fused_value_and_gradient_bitwise(name, dim, rng):
    """``w``, ``grad`` and ``dW/dh`` of a record share one ``q = r/h``
    (self pairs exercise the singular-origin branch) and are bitwise the
    separate allocating kernel calls."""
    kernel = make_kernel(name)
    n = 200
    x = rng.random((n, dim))
    h = rng.uniform(0.08, 0.16, size=n)
    box = Box.cube(0.0, 1.0, dim=dim, periodic=True)
    nlist = cell_grid_search(x, 2.0 * h, box, mode="symmetric")
    pairs = Pairs(_particles(x, h, rng), nlist, kernel, box)
    i, j = nlist.pairs()
    dx, r = pairs.dx, pairs.r
    assert np.any(r == 0.0)
    assert np.array_equal(pairs.w_i, kernel.value(r, h[i], dim))
    assert np.array_equal(pairs.w_j, kernel.value(r, h[j], dim))
    assert np.array_equal(pairs.grad_i, kernel.gradient(dx, r, h[i], dim))
    assert np.array_equal(pairs.grad_j, kernel.gradient(dx, r, h[j], dim))
    assert np.array_equal(pairs.dwdh_i, kernel.h_derivative(r, h[i], dim))
    assert pairs.q_i is pairs.q_i


# ----------------------------------------------------------------------
# Record lifetime
# ----------------------------------------------------------------------
def test_geometry_reuse_and_position_drift(cloud, rng, geometry_calls):
    x, h, box, nlist = cloud
    p = _particles(x, h, rng)
    kernel = make_kernel("cubic-spline")
    pairs = Pairs(p, nlist, kernel, box)
    assert geometry_calls == []  # nothing is computed before it is read
    dx, r = pairs.dx, pairs.r
    assert pairs.dx is dx and pairs.r is r and pairs.i is pairs.i
    assert geometry_calls == [nlist.n_pairs]  # one pass per record
    dx_ref, r_ref = nlist.pair_geometry(x, box)
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(r, r_ref)

    # Drift: the next evaluation's record sees the moved x on the same list.
    p.x += 0.01
    moved = Pairs(p, nlist, kernel, box)
    dx2, r2 = nlist.pair_geometry(p.x, box)
    assert np.array_equal(moved.dx, dx2)
    assert np.array_equal(moved.r, r2)


def test_product_invalidation_on_h_change(cloud, rng):
    """Products read ``h`` when first read: a record made before the h
    iteration writes ``h`` in place (the cache-hit path) sees the new
    ``h``; a record for a later state recomputes."""
    x, h, box, nlist = cloud
    kernel = make_kernel("cubic-spline")
    p = _particles(x, h, rng)
    i, _ = nlist.pairs()

    pairs = Pairs(p, nlist, kernel, box)
    pairs.r  # the h iteration counts off the geometry ...
    p.h[:] *= 1.05  # ... and writes h in place
    w1 = pairs.w_i
    assert np.array_equal(w1, kernel.value(pairs.r, p.h[i], 3))
    assert pairs.w_i is w1  # memoised

    p.h[:] *= 0.9
    w2 = Pairs(p, nlist, kernel, box).w_i
    assert np.array_equal(w2, kernel.value(pairs.r, p.h[i], 3))
    assert not np.array_equal(w1, w2)


def test_velocity_token_invalidates_vel_ij(cloud, rng):
    x, h, box, nlist = cloud
    kernel = make_kernel("cubic-spline")
    p = _particles(x, h, rng)
    i, j = nlist.pairs()
    pairs = Pairs(p, nlist, kernel, box)
    v1 = pairs.v_ij
    assert np.array_equal(v1, p.v[i] - p.v[j])
    assert pairs.v_ij is v1
    p.v = p.v * 2.0  # kick: the next evaluation's record reads the new v
    assert np.array_equal(Pairs(p, nlist, kernel, box).v_ij, p.v[i] - p.v[j])


def test_verlet_rebuild_invalidates_by_identity(monkeypatch):
    """Every evaluation's phases read the record of the support cut of
    the list the driver holds: on a cache hit the cut of the very record
    the h iteration counted off, after a build the cut of a fresh record
    of the list cut from the searched one."""
    sim = _patch_sim(ExecConfig())
    capture = _Capture(sim, monkeypatch)
    sweeps, cut_of = [], {}
    real_adapt, real_support = simulation.adapt_from_cached_list, Pairs.support

    def adapt(*args, **kwargs):
        sweeps.append(kwargs["pairs"])
        return real_adapt(*args, **kwargs)

    def support(self):
        cut = real_support(self)
        cut_of[id(cut)] = self
        return cut

    monkeypatch.setattr(simulation, "adapt_from_cached_list", adapt)
    monkeypatch.setattr(Pairs, "support", support)
    try:
        sim.run(n_steps=3)
    finally:
        sim.close()
    stats = sim.report().neighbor_cache
    assert stats["builds"] >= 1 and stats["hits"] >= 1
    assert len(sweeps) == stats["hits"]
    wholes = []
    for pairs, nlist, cut in capture.seen:
        whole = cut_of[id(pairs)]
        assert whole.nlist is nlist and whole is not pairs  # the skin is cut
        assert _same_list(pairs.nlist, cut)
        assert pairs.nlist.n_pairs < nlist.n_pairs
        wholes.append(whole)
    assert len([w for w in wholes if w in sweeps]) == stats["hits"]


def test_untracked_context_never_reuses_across_binds(cloud, rng, geometry_calls):
    """A phase called without a record (``pairs=None``) makes its own:
    two standalone calls are two geometry passes, nothing shared."""
    x, h, box, nlist = cloud
    kernel = make_kernel("cubic-spline")
    p = _particles(x, h, rng)
    first = compute_density(p, nlist, kernel, box).copy()
    second = compute_density(p, nlist, kernel, box)
    assert geometry_calls == [nlist.n_pairs, nlist.n_pairs]
    assert np.array_equal(first, second)


def test_context_row_slices(cloud, rng):
    """A row range's record: the slice's geometry, memoised per range on
    the whole-list record, reducing to the rows of the whole-list sums."""
    x, h, box, nlist = cloud
    kernel = make_kernel("cubic-spline")
    whole = Pairs(_particles(x, h, rng), nlist, kernel, box)
    lo, hi = 50, 180
    part = whole.rows(lo, hi)
    assert whole.rows(lo, hi) is part
    assert whole.rows(0, 50) is not part
    assert (part.lo, part.hi) == (lo, hi)
    sub = nlist.row_slice(lo, hi)
    dx_ref, r_ref = sub.pair_geometry(x, box, row_offset=lo)
    assert np.array_equal(part.dx, dx_ref)
    assert np.array_equal(part.r, r_ref)
    assert np.array_equal(part.i, sub.pair_i() + lo)
    assert np.array_equal(part.j, sub.indices)
    assert np.array_equal(part.reduce(part.grad_i), whole.reduce(whole.grad_i)[lo:hi])
    assert np.array_equal(part.reduce(part.w_i), whole.reduce(whole.w_i)[lo:hi])


def test_support_record_masks_geometry(rng, geometry_calls):
    """The support cut of a padded list's record: the pairs inside
    ``support * max(h_i, h_j)`` in list order, with the whole record's
    geometry masked (no second pass) and bitwise a fresh pass over the
    cut; its row slices slice that geometry, again without a pass."""
    n = 300
    x = rng.random((n, 3))
    h = rng.uniform(0.07, 0.1, size=n)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    padded = cell_grid_search(x, 2.6 * h, box, mode="symmetric")
    p = _particles(x, h, rng)
    kernel = make_kernel("cubic-spline")
    whole = Pairs(p, padded, kernel, box)
    cut = whole.support()
    assert geometry_calls == [padded.n_pairs]
    expected = _support_oracle(p, padded, kernel, box)
    assert _same_list(cut.nlist, expected)
    assert 0 < cut.nlist.n_pairs < padded.n_pairs
    del geometry_calls[:]
    part = cut.rows(40, 200)
    dx, r = part.dx, part.r
    assert geometry_calls == []
    dx_ref, r_ref = cut.nlist.row_slice(40, 200).pair_geometry(x, box, row_offset=40)
    assert np.array_equal(dx, dx_ref) and np.array_equal(r, r_ref)
    dx_ref, r_ref = expected.pair_geometry(x, box)
    assert np.array_equal(cut.dx, dx_ref) and np.array_equal(cut.r, r_ref)
    # A list with nothing outside support is its own cut.
    assert cut.support() is cut


# ----------------------------------------------------------------------
# Driver integration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hit", [False, True], ids=["fresh", "verlet"])
def test_phases_match_standalone_bitwise(hit, monkeypatch):
    """Each numpy phase returns the same bits reading the evaluation's
    record of the support cut (with whatever the evaluation's phases
    computed on it) as making its own with ``pairs=None`` — over the cut,
    and over the padded list the driver holds, whether the evaluation
    built that list fresh or hit the Verlet cache: per phase, the cut is
    bitwise neutral."""
    sim = _patch_sim(ExecConfig())
    try:
        sim.run(n_steps=1)
        if not hit:
            sim._ncache.invalidate()
        builds = sim.report().neighbor_cache["builds"]
        capture = _Capture(sim, monkeypatch)
        sim.compute_rates()
    finally:
        sim.close()
    assert sim.report().neighbor_cache["builds"] == builds + (not hit)
    (pairs, nlist, cut), = capture.seen
    assert pairs is not None and _same_list(pairs.nlist, cut)
    assert pairs.nlist.n_pairs < nlist.n_pairs
    p, kernel, box = sim.particles, sim.kernel, sim.box

    def runs(fn, **options):
        return [
            fn(p.copy(), pair_list, kernel, box, pairs=shared, **options)
            for pair_list, shared in
            ((pairs.nlist, pairs), (pairs.nlist, None), (nlist, None))
        ]

    def parts(res):
        if hasattr(res, "max_mu"):
            return res.a, res.du, res.max_mu
        return (res,) if isinstance(res, np.ndarray) else res

    def same(ref, *others):
        for other in others:
            for x, y in zip(parts(ref), parts(other), strict=True):
                assert np.array_equal(x, y)

    same(*runs(compute_density, volume_elements="standard"))
    same(*runs(compute_density, volume_elements="generalized"))
    same(*runs(grad_h_terms))
    same(*runs(compute_iad_matrices))
    same(*runs(velocity_divergence_curl))
    # The force loop's inputs from the sub-passes, off the shared record.
    omega = grad_h_terms(p, pairs.nlist, kernel, box, pairs=pairs)
    div, curl = velocity_divergence_curl(p, pairs.nlist, kernel, box, pairs=pairs)
    same(*runs(compute_forces, omega=omega))
    same(*runs(
        compute_forces,
        c_matrices=compute_iad_matrices(p, pairs.nlist, kernel, box, pairs=pairs),
        viscosity=ViscosityParams(use_balsara=True),
        balsara_f=balsara_switch(div, curl, p.cs, p.h),
    ))


@pytest.mark.parametrize("workers", [0, 2])
def test_cache_hit_evaluation_computes_geometry_once(workers, geometry_calls):
    """On a Verlet-cache hit the numpy h iteration, the support cut and
    every phase read one geometry pass over the padded list, threaded or
    not: the cut masks it and each slice's record slices the cut's."""
    sim = _patch_sim(ExecConfig(workers=workers))
    hit_steps = 0
    try:
        sim.run(n_steps=1)
        for _ in range(4):
            before = dict(sim.report().neighbor_cache)
            del geometry_calls[:]
            sim.step()
            after = sim.report().neighbor_cache
            if after["hits"] != before["hits"] + 1 or after["builds"] != before["builds"]:
                continue
            hit_steps += 1
            assert geometry_calls == [sim._nlist.n_pairs]
    finally:
        sim.close()
    assert hit_steps, "no step was a pure cache hit"


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("hits", [False, True], ids=["fresh", "verlet"])
def test_pool_engine_parity(workers, hits, monkeypatch):
    """Threads give the serial bits, with every evaluation building its
    list fresh (the Verlet cache never hit) or the cache hitting."""
    if not hits:
        monkeypatch.setattr(VerletNeighborCache, "lookup", lambda *a: None)
    ref, ref_dts, _ = _run_sim(ExecConfig(), n_steps=2)
    got, dts, sim = _run_sim(ExecConfig(workers=workers), n_steps=2)
    assert (sim.report().neighbor_cache["hits"] > 0) == hits
    assert dts == ref_dts
    for name in FIELDS:
        assert np.array_equal(got[name], ref[name]), (
            f"workers={workers} hits={hits}: field {name!r}"
        )


def test_restore_invalidates_pair_context(tmp_path):
    from repro.resilience.checkpoint import (
        Checkpoint,
        read_checkpoint,
        write_checkpoint,
    )

    sim = _patch_sim(ExecConfig(), layers=4)
    sim.run(n_steps=2)
    path = tmp_path / "cp.npz"
    write_checkpoint(path, Checkpoint.of_simulation(sim))
    sim.run(n_steps=1)
    third = {name: getattr(sim.particles, name).copy() for name in FIELDS}
    # Between evaluations nothing per pair is held.
    assert _pair_arrays(sim) == []
    read_checkpoint(path).restore_into(sim)
    # The restored run replays the third step bit for bit.
    sim.run(n_steps=1)
    for name in FIELDS:
        assert np.array_equal(getattr(sim.particles, name), third[name]), name


def _broken(*args, **kwargs):
    raise RuntimeError("phase failed")


def test_evaluation_closes_on_raise(monkeypatch):
    """A slice of a threaded phase raises: the evaluation's records go
    with the raise, the particles are untouched."""
    sim = _patch_sim(ExecConfig(workers=2))
    try:
        sim.run(n_steps=1)
        state = {name: getattr(sim.particles, name).copy() for name in FIELDS}
        with monkeypatch.context() as patch:
            patch.setattr(phase_executor, "compute_forces", _broken)
            with pytest.raises(RuntimeError, match="phase failed"):
                sim.compute_rates()
        assert _pair_arrays(sim) == []
        for name in ("x", "v", "a", "du"):
            assert np.array_equal(getattr(sim.particles, name), state[name]), name
    finally:
        sim.close()


def test_exception_inside_a_phase_closes_the_evaluation(monkeypatch):
    sim, ref = _patch_sim(ExecConfig(), layers=4), _patch_sim(ExecConfig(), layers=4)

    for s in (sim, ref):
        s.compute_rates()
        with monkeypatch.context() as patch:
            patch.setattr(phase_executor, "compute_forces", _broken)
            with pytest.raises(RuntimeError, match="phase failed"):
                s.compute_rates()
    assert _pair_arrays(sim) == []

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
# Nothing per pair outlives an evaluation; the compiled path is counted
# at the library boundary
# ----------------------------------------------------------------------
STANDARD_GRADH_BALSARA = dict(
    gradients="standard", grad_h=True, viscosity=ViscosityParams(use_balsara=True)
)


@pytest.mark.parametrize(
    "config_kw, phase_ops",
    [
        ({}, {"rp_density": 1, "rp_div_curl": 0}),
        (STANDARD_GRADH_BALSARA, {"rp_density": 2, "rp_div_curl": 1}),
    ],
    ids=["iad", "standard+gradh+balsara"],
)
def test_compiled_ops_per_cache_hit_step(config_kw, phase_ops, rp_calls):
    """On cffi one adaptation is one op whatever its sweep count, and it
    emits the support list too (a build emits from one more op over the
    final list); each pair phase the configuration runs is one row-kernel
    call (density and the IAD matrices one; density twice with grad-h:
    ``W`` sums, then ``dW/dh`` sums) — nothing per pair is computed ahead
    or kept."""
    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    sim = _patch_sim(ExecConfig(backend="cffi"), **config_kw)
    # Step 0 of a cold run: two evaluations, the first of which builds.
    sim.run(n_steps=1)
    cold = sim.report().neighbor_cache
    counts = collections.Counter(name for name, _ in rp_calls)
    assert cold["builds"] == cold["searches"] == 1
    assert counts["rp_walk"] == 1  # one search, one traversal
    assert counts["rp_pairs_within"] == 1
    # Two adaptations; the build's ends with an emission-only op.
    assert cold["adaptations"] == 2
    assert counts["rp_adapt"] == 3

    del rp_calls[:]
    sim.run(n_steps=1)
    report = sim.report()
    assert report.neighbor_cache["hits"] == cold["hits"] + 1  # a hit step
    # One adaptation, every particle counting at least once.
    assert report.neighbor_cache["adaptations"] == cold["adaptations"] + 1
    assert report.neighbor_cache["sweeps"] >= cold["sweeps"] + sim.particles.n
    counts = collections.Counter(name for name, _ in rp_calls)
    assert counts["rp_adapt"] == 1  # not 1 + sweeps, and it emits the cut
    for op, calls in phase_ops.items():
        assert counts[op] == calls, op
    assert counts["rp_forces"] == 1
    assert counts["rp_walk"] == counts["rp_pairs_within"] == 0
    assert sum(counts.values()) == 2 + sum(phase_ops.values())

    assert sim._nlist.indices.dtype == np.int32
    sim.close()


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_compiled_path_keeps_nothing_per_pair_but_the_list(backend, workers):
    """After steps that build the list and hit it, no float64 array of
    pair length is reachable from the simulation, on either backend:
    the compiled path recomputes per row, and the numpy path's pair
    record is a local of the rate evaluation.  The neighbour list is the
    only per-pair state that outlives an evaluation."""
    if backend == "cffi" and not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    sim = _patch_sim(ExecConfig(backend=backend, workers=workers))
    try:
        sim.run(n_steps=2)
        stats = sim.report().neighbor_cache
        assert stats["builds"] >= 1 and stats["hits"] >= 1
        assert _pair_arrays(sim) == []
    finally:
        sim.close()
