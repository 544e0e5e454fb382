"""Shared-memory parallel execution of Algorithm-1 phases E-I.

Parent side, :class:`ParallelEngine` mirrors the serial kernel entry
points (density, IAD moments, forces, gravity) but fans each one out over
a :class:`~repro.parallel.supervisor.SupervisedPool`: inputs are
published into the :class:`~repro.parallel.shm.ShmArena`, query rows
are split at equal-pair CSR boundaries, and each worker evaluates its row slice with the *same*
kernel code the serial path runs (``rows=(lo, hi)`` mode), writing
results into arena output fields at disjoint slices.  Parity with the
serial path is therefore structural: both paths execute identical
per-pair arithmetic and identical per-particle reduction orders.

Worker side, the ``@register_task`` handlers reconstruct lightweight
views of the particle SoA and the CSR neighbour list straight from shared
memory (zero copies) and call the slice-mode kernels.

Tracing: every engine call records one ``FAN_OUT`` interval (publish +
dispatch) and one ``REDUCE`` interval (await workers + merge) under the
calling phase's letter, so Figure-4 style timelines show where pool
orchestration time goes.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import select_backend
from ..core.config import ExecConfig
from ..core.particles import ParticleSystem
from ..gradients.iad import compute_iad_matrices
from ..gravity.barnes_hut import GravityResult, barnes_hut_gravity
from ..gravity.multipole import NodeMoments, compute_node_moments
from ..profiling.trace import State, Tracer
from ..sph.density import compute_density, grad_h_terms
from ..sph.forces import ForceResult, compute_forces, velocity_divergence_curl
from ..sph.pair_engine import PairContext, PairEngineStats
from ..sph.viscosity import ViscosityParams, balsara_switch
from ..tree.neighborlist import NeighborList
from ..tree.octree import Octree
from .pool import register_task, row_chunks
from .shm import ShmArena
from .supervisor import SupervisedPool, SupervisorStats

__all__ = ["ExecConfig", "ParallelEngine"]


# ======================================================================
# Worker-side task handlers
# ======================================================================
_STATE_FIELDS = ("x", "v", "m", "h", "rho", "p", "cs")


def _particles_from(views, rho_field: str = "rho") -> ParticleSystem:
    return ParticleSystem(
        x=views.view("x"),
        v=views.view("v"),
        m=views.view("m"),
        h=views.view("h"),
        rho=views.view(rho_field),
        p=views.view("p"),
        cs=views.view("cs"),
    )


def _nlist_from(views) -> NeighborList:
    return NeighborList(
        offsets=views.view("nl_offsets"), indices=views.view("nl_indices")
    )


#: Per-process pair contexts for the row-sliced worker path, keyed by the
#: task's row range.  Chunk boundaries are stable across the phases of a
#: step (same CSR offsets), so one context serves a slice for the whole
#: step; parent-minted tokens shipped in ``params["pair_tokens"]`` drive
#: invalidation.  Contexts are trusted (``trust_tokens=True``) because
#: shared-memory neighbour-list views are rebuilt per task.
_WORKER_CTXS: dict = {}
_WORKER_CTX_CAP = 64


def _worker_pair_ctx(params, lo, hi):
    """Fetch/create this slice's persistent context."""
    key = (lo, hi)
    ctx = _WORKER_CTXS.get(key)
    if ctx is None:
        if len(_WORKER_CTXS) >= _WORKER_CTX_CAP:
            # Chunk boundaries changed wholesale (e.g. a resized run in
            # the same pool) — drop everything rather than leak arenas.
            _WORKER_CTXS.clear()
        ctx = PairContext(trust_tokens=True)
        _WORKER_CTXS[key] = ctx
    ctx.set_tokens(*params["pair_tokens"])
    return ctx


def _pair_reply(ctx, snap, data):
    data["pair"] = ctx.stats.delta(snap)
    return data


def _worker_backend(params):
    """Resolve this process's backend from the shipped name (None = numpy).

    The parent only ships a name when its own resolution produced a
    compiled backend, so a worker that cannot build the same toolchain
    falls back to numpy via the usual warn-once path — results are
    still correct, just slower on that worker.
    """
    name = params.get("backend")
    if name is None:
        return None
    return select_backend(name)


@register_task("density")
def _task_density(views, params, lo, hi):
    ctx = _worker_pair_ctx(params, lo, hi)
    snap = ctx.stats.snapshot()
    particles = _particles_from(views, rho_field=params.get("rho_field", "rho"))
    rho = compute_density(
        particles,
        _nlist_from(views),
        params["kernel"],
        params["box"],
        volume_elements=params["volume_elements"],
        xmass_exponent=params["xmass_exponent"],
        rows=(lo, hi),
        ctx=ctx,
        backend=_worker_backend(params),
    )
    views.view(params["out"])[lo:hi] = rho
    return _pair_reply(ctx, snap, {})


@register_task("iad")
def _task_iad(views, params, lo, hi):
    ctx = _worker_pair_ctx(params, lo, hi)
    snap = ctx.stats.snapshot()
    c = compute_iad_matrices(
        _particles_from(views),
        _nlist_from(views),
        params["kernel"],
        params["box"],
        rows=(lo, hi),
        ctx=ctx,
        backend=_worker_backend(params),
    )
    views.view("out_c")[lo:hi] = c
    return _pair_reply(ctx, snap, {})


@register_task("gradh")
def _task_gradh(views, params, lo, hi):
    ctx = _worker_pair_ctx(params, lo, hi)
    snap = ctx.stats.snapshot()
    omega = grad_h_terms(
        _particles_from(views),
        _nlist_from(views),
        params["kernel"],
        params["box"],
        rows=(lo, hi),
        ctx=ctx,
        backend=_worker_backend(params),
    )
    views.view("out_omega")[lo:hi] = omega
    return _pair_reply(ctx, snap, {})


@register_task("divcurl")
def _task_divcurl(views, params, lo, hi):
    ctx = _worker_pair_ctx(params, lo, hi)
    snap = ctx.stats.snapshot()
    div, curl = velocity_divergence_curl(
        _particles_from(views),
        _nlist_from(views),
        params["kernel"],
        params["box"],
        rows=(lo, hi),
        ctx=ctx,
        backend=_worker_backend(params),
    )
    views.view("out_div")[lo:hi] = div
    views.view("out_curl")[lo:hi] = curl
    return _pair_reply(ctx, snap, {})


@register_task("forces")
def _task_forces(views, params, lo, hi):
    ctx = _worker_pair_ctx(params, lo, hi)
    snap = ctx.stats.snapshot()
    omega = views.view("out_omega") if params["grad_h"] else None
    balsara_f = views.view("balsara_f") if params["use_balsara"] else None
    c_matrices = views.view("c_matrices") if params["iad"] else None
    result = compute_forces(
        _particles_from(views),
        _nlist_from(views),
        params["kernel"],
        params["box"],
        gradients="iad" if params["iad"] else "standard",
        viscosity=params["viscosity"],
        grad_h=params["grad_h"],
        c_matrices=c_matrices,
        rows=(lo, hi),
        omega=omega,
        balsara_f=balsara_f,
        ctx=ctx,
        backend=_worker_backend(params),
    )
    views.view("out_a")[lo:hi] = result.a
    views.view("out_du")[lo:hi] = result.du
    return _pair_reply(ctx, snap, {"max_mu": result.max_mu})


_TREE_FIELDS = (
    "center",
    "half",
    "level",
    "child_start",
    "child_count",
    "pstart",
    "pend",
    "order",
)


@register_task("gravity")
def _task_gravity(views, params, lo, hi):
    leaves = views.view("leaves")[lo:hi]
    if leaves.size == 0:
        return {"n_p2p": 0, "n_m2p": 0, "path": None}
    tree = Octree(
        box=params["box"],
        **{name: views.view(f"tree_{name}") for name in _TREE_FIELDS},
    )
    moments = NodeMoments(
        order=params["order"],
        mass=views.view("mom_mass"),
        com=views.view("mom_com"),
        m2=views.view("mom_m2") if params["has_m2"] else None,
        m3=views.view("mom_m3") if params["has_m3"] else None,
        m4=views.view("mom_m4") if params["has_m4"] else None,
    )
    x = views.view("x")
    m = views.view("m")
    backend = _worker_backend(params)
    result = barnes_hut_gravity(
        x,
        m,
        g_const=params["g_const"],
        softening=params["softening"],
        theta=params["theta"],
        order=params["order"],
        tree=tree,
        moments=moments,
        target_leaves=leaves,
        ops=None if backend is None else backend.ops,
    )
    # Targets of disjoint leaves are disjoint particle index sets, so the
    # scatter below never races with other workers.
    flat = np.concatenate(
        [
            np.arange(s, e, dtype=np.int64)
            for s, e in zip(tree.pstart[leaves], tree.pend[leaves])
        ]
    )
    tidx = tree.order[flat]
    views.view("out_acc")[tidx] = result.acc[tidx]
    views.view("out_phi")[tidx] = result.phi[tidx]
    return {"n_p2p": result.n_p2p, "n_m2p": result.n_m2p, "path": result.path}


@register_task("probe")
def _task_probe(views, params, lo, hi):
    """Physics-free diagnostic task for supervisor/chaos tests.

    Writes ``scale * row_index`` into rows ``[lo, hi)`` of ``params['out']``
    (when given) after an optional sleep, and replies with the row count.
    """
    if params.get("sleep"):
        time.sleep(float(params["sleep"]))
    out = params.get("out")
    if out is not None:
        views.view(out)[lo:hi] = (
            np.arange(lo, hi, dtype=np.float64) * float(params.get("scale", 1.0))
        )
    return {"rows": hi - lo}


# ======================================================================
# Parent-side engine
# ======================================================================
def _field_bytes(shape, dtype) -> int:
    nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return (nbytes + 63) // 64 * 64


class ParallelEngine:
    """Pool-backed evaluation of density / IAD / forces / gravity.

    Owns a :class:`SupervisedPool` and a :class:`ShmArena` (both created
    lazily on first use) and is safe to share across the phases of one
    :class:`~repro.core.simulation.Simulation`.  Results are written into
    the same particle arrays the serial path writes, so the two paths are
    drop-in interchangeable.
    """

    def __init__(
        self,
        config: ExecConfig,
        tracer: Optional[Tracer] = None,
        rank: int = 0,
        worker_spans: bool = True,
    ) -> None:
        if not config.parallel_enabled:
            raise ValueError("ParallelEngine needs ExecConfig(workers >= 1)")
        self.config = config
        self.tracer = tracer
        self.rank = rank
        self.worker_spans = worker_spans
        self._pool: Optional[SupervisedPool] = None
        self._arena: Optional[ShmArena] = None
        self._step = 0
        #: Aggregated pair-engine counters folded in from worker replies.
        self.pair_stats = PairEngineStats()

    def _merge_pair_stats(self, replies) -> None:
        for _, data in replies:
            if isinstance(data, dict):
                self.pair_stats.merge(data.get("pair"))

    # ------------------------------------------------------------------
    def _ensure(self) -> Tuple[SupervisedPool, ShmArena]:
        if self._pool is None:
            self._pool = SupervisedPool(
                self.config.workers,
                start_method=self.config.start_method,
                config=self.config.supervisor,
                chaos=self.config.chaos,
                tracer=self.tracer,
                rank=self.rank,
            )
            self._pool.step_index = self._step
            self._install_span_sink(self._pool)
            self._arena = ShmArena(self.config.arena_capacity)
        return self._pool, self._arena

    def _install_span_sink(self, pool) -> None:
        """Merge worker span envelopes into the driver's tracer.

        Workers time their handler with ``perf_counter`` (system-wide
        monotonic), so the parent only needs to attribute the interval to
        row ``thread = slot + 1`` of its own rank and the current step.
        Supervised pools forward spans solely for applied replies, which
        keeps the merged timeline coherent across crashes and respawns.
        """
        tr = self.tracer
        if (
            not self.worker_spans
            or tr is None
            or not getattr(tr, "enabled", False)
        ):
            return
        record = getattr(tr, "record_span", None)
        if record is None:
            return
        engine = self

        def sink(worker: int, span: dict) -> None:
            record(
                span.get("phase", "?"),
                State.USEFUL,
                span["t0"],
                span["dur"],
                rank=engine.rank,
                thread=worker + 1,
                step=engine._step,
                label=(
                    f"{span.get('kind', '?')}"
                    f"[{span.get('lo', 0)}:{span.get('hi', 0)})"
                ),
            )

        pool.span_sink = sink

    def _map(
        self,
        kind: str,
        chunks: Sequence[Tuple[int, int]],
        params: dict,
        *,
        phase: str,
        verify: Sequence[Tuple[str, bool]] = (),
    ) -> List[Tuple[Tuple[int, int], Any]]:
        """Fan out one task kind over the supervised pool."""
        pool, arena = self._ensure()
        return pool.map(
            kind,
            chunks,
            arena.descriptor(),
            params,
            phase=phase,
            verify=verify if self.config.verify_outputs else (),
        )

    def set_step(self, step: int) -> None:
        """Tell the supervisor the driver's step index (chaos matching)."""
        if self._pool is not None:
            self._pool.step_index = step
        self._step = step

    @property
    def supervisor_stats(self) -> Optional[SupervisorStats]:
        """Recovery counters/events (``None`` before the pool spins up)."""
        return self._pool.stats if self._pool is not None else None

    def _phase(self, letter: str, state: State):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.phase(letter, state, self.rank)

    @property
    def n_chunks(self) -> int:
        return self.config.workers * self.config.chunks_per_worker

    def close(self) -> None:
        """Shut down workers and release the shared-memory arena."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _begin_cycle(
        self, arena: ShmArena, particles: ParticleSystem, nlist: NeighborList, extra: int
    ) -> None:
        """Reset the arena and size it for state + CSR + ``extra`` bytes."""
        arena.reset()
        total = extra
        for name in _STATE_FIELDS:
            total += _field_bytes(getattr(particles, name).shape, np.float64)
        total += _field_bytes(nlist.offsets.shape, np.int64)
        total += _field_bytes(nlist.indices.shape, np.int64)
        arena.require(total)
        for name in _STATE_FIELDS:
            arena.publish(name, getattr(particles, name))
        arena.publish("nl_offsets", nlist.offsets)
        arena.publish("nl_indices", nlist.indices)

    # ------------------------------------------------------------------
    def density(
        self,
        particles: ParticleSystem,
        nlist: NeighborList,
        kernel,
        box,
        *,
        volume_elements: str = "standard",
        xmass_exponent: float = 0.7,
        phase: str = "E",
        pair_tokens: Optional[Tuple] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Pool-parallel :func:`repro.sph.density.compute_density`."""
        pool, arena = self._ensure()
        kernel.sigma(particles.dim)  # warm the cache shipped with the pickle
        n = particles.n
        bootstrap = volume_elements == "generalized" and bool(
            np.any(particles.rho <= 0.0)
        )
        with self._phase(phase, State.FAN_OUT):
            extra = 2 * _field_bytes((n,), np.float64)
            self._begin_cycle(arena, particles, nlist, extra)
            out = arena.alloc("out_rho", (n,), np.float64)
            chunks = row_chunks(n, self.n_chunks, offsets=nlist.offsets)
            params = {
                "kernel": kernel,
                "box": box,
                "volume_elements": volume_elements,
                "xmass_exponent": xmass_exponent,
                "out": "out_rho",
                "pair_tokens": pair_tokens,
                "backend": backend,
            }
            if bootstrap:
                # Pass 1 fills a standard summation the generalized
                # estimator then reads as rho_prev (exactly the serial
                # bootstrap, fanned out).
                arena.alloc("rho_boot", (n,), np.float64)
                boot_params = dict(
                    params, volume_elements="standard", out="rho_boot"
                )
                self._merge_pair_stats(
                    self._map(
                        "density", chunks, boot_params,
                        phase=phase, verify=(("rho_boot", True),),
                    )
                )
                params["rho_field"] = "rho_boot"
            replies = self._map(
                "density", chunks, params,
                phase=phase, verify=(("out_rho", True),),
            )
        with self._phase(phase, State.REDUCE):
            self._merge_pair_stats(replies)
            particles.rho[:] = out
        return particles.rho

    # ------------------------------------------------------------------
    def iad_matrices(
        self,
        particles: ParticleSystem,
        nlist: NeighborList,
        kernel,
        box,
        *,
        phase: str = "D",
        pair_tokens: Optional[Tuple] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Pool-parallel :func:`repro.gradients.iad.compute_iad_matrices`."""
        pool, arena = self._ensure()
        kernel.sigma(particles.dim)
        n, dim = particles.n, particles.dim
        with self._phase(phase, State.FAN_OUT):
            extra = _field_bytes((n, dim, dim), np.float64)
            self._begin_cycle(arena, particles, nlist, extra)
            out = arena.alloc("out_c", (n, dim, dim), np.float64)
            chunks = row_chunks(n, self.n_chunks, offsets=nlist.offsets)
            params = {
                "kernel": kernel, "box": box,
                "pair_tokens": pair_tokens, "backend": backend,
            }
            self._merge_pair_stats(
                self._map(
                    "iad", chunks, params, phase=phase, verify=(("out_c", False),)
                )
            )
        with self._phase(phase, State.REDUCE):
            c = np.array(out, copy=True)
        return c

    # ------------------------------------------------------------------
    def forces(
        self,
        particles: ParticleSystem,
        nlist: NeighborList,
        kernel,
        box,
        *,
        gradients: str = "standard",
        viscosity: ViscosityParams = ViscosityParams(),
        grad_h: bool = False,
        c_matrices: Optional[np.ndarray] = None,
        phase: str = "G",
        pair_tokens: Optional[Tuple] = None,
        backend: Optional[str] = None,
    ) -> ForceResult:
        """Pool-parallel :func:`repro.sph.forces.compute_forces`.

        Runs up to three fan-outs in one arena cycle: grad-h factors
        (when enabled), divergence/curl for the Balsara switch (when
        enabled) and the fused momentum/energy pair loop.
        """
        pool, arena = self._ensure()
        kernel.sigma(particles.dim)
        n, dim = particles.n, particles.dim
        use_iad = gradients == "iad"
        if use_iad and c_matrices is None:
            c_matrices = self.iad_matrices(
                particles, nlist, kernel, box,
                phase=phase, pair_tokens=pair_tokens, backend=backend,
            )
        with self._phase(phase, State.FAN_OUT):
            extra = _field_bytes((n, dim), np.float64) + _field_bytes((n,), np.float64)
            extra += 4 * _field_bytes((n,), np.float64)  # omega/div/curl/balsara
            if use_iad:
                extra += _field_bytes((n, dim, dim), np.float64)
            self._begin_cycle(arena, particles, nlist, extra)
            if use_iad:
                arena.publish("c_matrices", c_matrices)
            chunks = row_chunks(n, self.n_chunks, offsets=nlist.offsets)
            base = {
                "kernel": kernel, "box": box,
                "pair_tokens": pair_tokens, "backend": backend,
            }
            if grad_h:
                arena.alloc("out_omega", (n,), np.float64)
                self._merge_pair_stats(
                    self._map(
                        "gradh", chunks, base,
                        phase=phase, verify=(("out_omega", True),),
                    )
                )
            if viscosity.use_balsara:
                div = arena.alloc("out_div", (n,), np.float64)
                curl = arena.alloc("out_curl", (n,), np.float64)
                self._merge_pair_stats(
                    self._map(
                        "divcurl", chunks, base,
                        phase=phase,
                        verify=(("out_div", False), ("out_curl", False)),
                    )
                )
                f = balsara_switch(div, curl, particles.cs, particles.h)
                arena.publish("balsara_f", f)
            out_a = arena.alloc("out_a", (n, dim), np.float64)
            out_du = arena.alloc("out_du", (n,), np.float64)
            params = dict(
                base,
                iad=use_iad,
                viscosity=viscosity,
                grad_h=grad_h,
                use_balsara=viscosity.use_balsara,
            )
            replies = self._map(
                "forces", chunks, params,
                phase=phase,
                verify=(("out_a", False), ("out_du", False)),
            )
        with self._phase(phase, State.REDUCE):
            self._merge_pair_stats(replies)
            max_mu = max((data["max_mu"] for _, data in replies), default=0.0)
            particles.a[:] = out_a
            particles.du[:] = out_du
        return ForceResult(a=particles.a, du=particles.du, max_mu=max_mu)

    # ------------------------------------------------------------------
    def gravity(
        self,
        x: np.ndarray,
        m: np.ndarray,
        *,
        g_const: float = 1.0,
        softening: float = 0.0,
        theta: float = 0.5,
        order: int = 2,
        tree: Optional[Octree] = None,
        phase: str = "I",
        backend: Optional[str] = None,
    ) -> GravityResult:
        """Pool-parallel Barnes-Hut gravity.

        The parent builds/reuses the tree and the node moments (cheap
        prefix-sum passes), then partitions the populated target leaves
        over the workers at ~equal particle counts; each worker walks
        its leaves only, on the backend named by ``backend``.
        """
        pool, arena = self._ensure()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        m = np.asarray(m, dtype=np.float64)
        n, dim = x.shape
        if tree is None:
            tree = Octree.build(x)
        moments = compute_node_moments(tree, x, m, order=order)
        leaves = np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]
        with self._phase(phase, State.FAN_OUT):
            arena.reset()
            total = 2 * _field_bytes((n, dim), np.float64)  # x + out_acc
            total += 3 * _field_bytes((n,), np.float64)  # m, out_phi, slack
            total += _field_bytes(leaves.shape, np.int64)
            for name in _TREE_FIELDS:
                arr = getattr(tree, name)
                total += _field_bytes(arr.shape, arr.dtype)
            for name in ("mass", "com", "m2", "m3", "m4"):
                arr = getattr(moments, name)
                if arr is not None:
                    total += _field_bytes(arr.shape, arr.dtype)
            arena.require(total)
            arena.publish("x", x)
            arena.publish("m", m)
            arena.publish("leaves", leaves)
            for name in _TREE_FIELDS:
                arena.publish(f"tree_{name}", getattr(tree, name))
            arena.publish("mom_mass", moments.mass)
            arena.publish("mom_com", moments.com)
            for name in ("m2", "m3", "m4"):
                arr = getattr(moments, name)
                if arr is not None:
                    arena.publish(f"mom_{name}", arr)
            out_acc = arena.alloc("out_acc", (n, dim), np.float64)
            out_phi = arena.alloc("out_phi", (n,), np.float64)
            out_acc[...] = 0.0
            out_phi[...] = 0.0
            # Split leaves at ~equal particle counts (their P2P/M2P work).
            leaf_counts = tree.pend[leaves] - tree.pstart[leaves]
            leaf_offsets = np.concatenate(
                [[0], np.cumsum(leaf_counts, dtype=np.int64)]
            )
            chunks = row_chunks(leaves.size, self.n_chunks, offsets=leaf_offsets)
            params = {
                "box": tree.box,
                "g_const": g_const,
                "softening": softening,
                "theta": theta,
                "order": order,
                "has_m2": moments.m2 is not None,
                "has_m3": moments.m3 is not None,
                "has_m4": moments.m4 is not None,
                "backend": backend,
            }
            # Gravity chunks index *leaves* and workers scatter-write
            # particle rows, so slice CRCs don't apply — no verify pass.
            replies = self._map("gravity", chunks, params, phase=phase)
        with self._phase(phase, State.REDUCE):
            acc = np.array(out_acc, copy=True)
            phi = np.array(out_phi, copy=True)
            n_p2p = sum(data["n_p2p"] for _, data in replies)
            n_m2p = sum(data["n_m2p"] for _, data in replies)
            # One name unless a worker could not build the shipped backend.
            paths = {data["path"] for _, data in replies} - {None}
        return GravityResult(
            acc=acc, phi=phi, n_p2p=n_p2p, n_m2p=n_m2p,
            path="+".join(sorted(paths)) or "numpy",
        )
