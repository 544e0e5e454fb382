"""The phase executor: how the driver runs Algorithm-1 phases D-I.

One class, three entry points (``density``, which also returns the IAD
matrices of its pass on request, ``forces`` and ``gravity``) — the seam
the driver's phase methods call each phase through, and the one owner
of the order of the sub-passes inside a phase: the bootstrap density
before a density pass that reads the previous one, grad-h and div/curl
(Balsara) before the force loop.

An entry point cuts the query rows into ``max(workers, 1)``
pair-balanced slices (gravity: particle-balanced slices of the target
leaves) and runs the phase function per slice (``rows=(lo, hi)`` /
``target_leaves=``).  With ``workers == 0`` that is one slice, ``(0,
n)``, called inline on the driver thread with the evaluation's own pair
record.  With ``workers >= 1`` each slice runs on its own thread; the
threads share the particle arrays — the paper's node-level model.  The
compiled ops and numpy's ufuncs release the interpreter lock, a slice
writes only its own ``out[lo:hi]``, and every row is reduced in the same
order whatever the slicing, so any ``workers`` reproduces the serial
result bit for bit.

Nothing crosses a process boundary: slices read the driver's live
particles, backend, kernel and box (never copies, so
``Simulation.degrade_to_serial()`` takes effect on the next phase), and
each slice reads the record of its own rows (``Pairs.rows`` of the
evaluation's record), which every phase of the evaluation shares.
Outputs land in a buffer that is copied into ``particles`` only after
every slice of the phase returned; an exception raised in a slice is
re-raised on the driver thread (the first in slice order) once the
fan-out has finished, with ``particles`` untouched and the executor
still usable.

The phase functions are reached through this module's global names —
the e2e benchmark's tracer interposes on those.
"""

from __future__ import annotations

import copy
import time
import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..observability.tracer import State
from ..sph.density import compute_density, grad_h_terms
from ..sph.forces import ForceResult, compute_forces, velocity_divergence_curl
from ..sph.viscosity import balsara_switch
from ..tree.neighborlist import balanced_row_slices

if TYPE_CHECKING:  # gravity loads when a step first needs it
    from ..gravity.barnes_hut import GravityResult

__all__ = ["PhaseExecutor"]


class PhaseExecutor:
    """Runs the pair phases and gravity for one ``Simulation``.

    The back-reference is weak: a simulation dropped without ``close()``
    takes its executor — and with it the idle threads — along.
    """

    def __init__(self, sim, workers: int = 0) -> None:
        self._sim = weakref.proxy(sim)
        self.workers = workers
        self._pool = None

    def close(self) -> None:
        """Join the threads (idempotent; a later fan-out restarts them)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _span(self, phase: str):
        """The driver's span of a phase: ``FORK_JOIN`` around threads."""
        state = State.FORK_JOIN if self.workers else State.USEFUL
        return self._sim.tracer.phase(phase, state)

    def _fan_out(self, kind: str, phase: str, slices: list, fn) -> list:
        """``[fn(k, lo, hi) for k, (lo, hi) in enumerate(slices)]``.

        With ``workers == 0`` (one slice) the call runs inline on the
        driver thread, inside the phase span.  Otherwise each slice runs
        on a thread, timing itself; the driver records those spans after
        the join, in slice order, on thread row ``k + 1`` — the tracer is
        only ever written from the driver thread.
        """
        if not self.workers:
            return [fn(k, lo, hi) for k, (lo, hi) in enumerate(slices)]
        if self._pool is None:
            # The threads start here — on the first fan-out of the
            # process that runs the simulation, never at import or
            # construction (service workers fork before this point).
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                self.workers, thread_name_prefix="repro-phase"
            )

        def timed(k: int):
            t0 = time.perf_counter()
            try:
                out = fn(k, *slices[k])
            except Exception as exc:  # re-raised by the driver below
                out = exc
            return t0, time.perf_counter() - t0, out

        done = list(self._pool.map(timed, range(len(slices))))
        tracer = self._sim.tracer
        for k, (t0, dur, _) in enumerate(done):
            lo, hi = slices[k]
            tracer.record_span(
                phase, State.USEFUL, t0, dur, thread=k + 1,
                label=f"{kind}[{lo}:{hi})",
            )
        results = [out for *_, out in done]
        for out in results:
            if isinstance(out, Exception):
                raise out
        return results

    def _rows(self, phase: str, nlist, pairs):
        """The row-sliced fan-out of one phase over ``nlist``:
        ``run(kind, fn, outs)`` calls ``fn(..., rows=(lo, hi))`` per
        pair-balanced slice, with that slice's pair record and the
        driver's particles, kernel, box and backend, and stores what it
        returns in ``out[lo:hi]`` of each buffer in ``outs``.

        What every slice reads that is made lazily — the kernel
        normalisation, memoised per process, and the slices' records
        (``None`` on the compiled path; the one slice of ``workers ==
        0`` reads the evaluation's record itself) — is made here, on the
        driver thread.
        """
        sim = self._sim
        particles, kernel, box = sim.particles, sim.kernel, sim.box
        backend = sim.backend
        kernel.sigma(particles.dim)
        slices = balanced_row_slices(nlist.offsets, max(self.workers, 1))
        records = [None if pairs is None else pairs.rows(*s) for s in slices]

        def run(kind, fn, outs, parts=lambda res: (res,), source=particles,
                **options) -> list:
            def one(k: int, lo: int, hi: int):
                res = fn(
                    source, nlist, kernel, box, rows=(lo, hi),
                    pairs=records[k], backend=backend, **options,
                )
                for out, part in zip(outs, parts(res)):
                    out[lo:hi] = part
                return res

            return self._fan_out(kind, phase, slices, one)

        return run

    # -- the three entry points: ``nlist`` = the evaluation's support cut,
    # -- ``pairs`` = its pair record (``None`` on the compiled path);
    # -- ``options`` = the phase function's own keywords, spelled out by
    # -- the one caller of each (the driver's method of that phase)
    def density(self, nlist, pairs, *, phase: str, **options):
        """Update ``particles.rho``; return the IAD matrices of the same
        pass with ``return_iad``, else ``None``.

        IAD (through its ``m_j/rho_j`` weights) and the generalized
        estimator read the previous density: when any of it is not
        positive — an initial condition without one — a standard
        summation runs first and stands in for it.
        """
        particles = self._sim.particles
        n, dim = particles.n, particles.dim
        iad = options["return_iad"]
        with self._span(phase):
            run = self._rows(phase, nlist, pairs)
            source = particles
            reads_rho = iad or options["volume_elements"] == "generalized"
            if reads_rho and np.any(particles.rho <= 0.0):
                source = copy.copy(particles)
                source.rho = np.empty(n)
                run("density", compute_density, (source.rho,))
            rho = np.empty(n)
            if iad:
                c = np.empty((n, dim, dim))
                run("density", compute_density, (rho, c), parts=tuple,
                    source=source, **options)
            else:
                run("density", compute_density, (rho,), source=source, **options)
            particles.rho[:] = rho
        return c if iad else None

    def forces(self, nlist, pairs, *, phase: str, grad_h: bool,
               **options) -> ForceResult:
        """``compute_forces``' return, after the sub-passes it reads:
        grad-h ``Omega`` when ``grad_h``, the Balsara factors (from
        div/curl) when the viscosity uses them."""
        particles = self._sim.particles
        n = particles.n
        with self._span(phase):
            run = self._rows(phase, nlist, pairs)
            # Every cross-particle input of the force loop is global, so
            # each pass is complete before the next one reads it.
            omega = balsara_f = None
            if grad_h:
                omega = np.empty(n)
                run("gradh", grad_h_terms, (omega,))
            if options["viscosity"].use_balsara:
                div, curl = np.empty(n), np.empty(n)
                run("divcurl", velocity_divergence_curl, (div, curl), parts=tuple)
                balsara_f = balsara_switch(div, curl, particles.cs, particles.h)
            a, du = np.empty_like(particles.a), np.empty(n)
            done = run(
                "forces", compute_forces, (a, du),
                parts=lambda res: (res.a, res.du),
                omega=omega, balsara_f=balsara_f, **options,
            )
            particles.a[:] = a
            particles.du[:] = du
        max_mu = max((res.max_mu for res in done), default=0.0)
        return ForceResult(a=particles.a, du=particles.du, max_mu=max_mu)

    def gravity(self, *, phase: str, **options) -> GravityResult:
        """The driver's Barnes-Hut gravity over its particles and octree."""
        from ..gravity.barnes_hut import GravityResult, barnes_hut_gravity
        from ..gravity.multipole import compute_node_moments

        x, m = self._sim.particles.x, self._sim.particles.m
        ops = self._sim.backend.ops
        tree = options["tree"]
        with self._span(phase):
            moments = compute_node_moments(
                tree, x, m, order=options["order"], ops=ops
            )
            leaves = np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]
            counts = tree.pend[leaves] - tree.pstart[leaves]
            offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
            acc, phi = np.zeros_like(x), np.zeros(x.shape[0])

            def one(k, lo, hi) -> GravityResult:
                # Disjoint leaves hold disjoint particles: no slice
                # writes a row another slice writes.
                return barnes_hut_gravity(
                    x, m, moments=moments, ops=ops,
                    target_leaves=leaves[lo:hi], out=(acc, phi), **options,
                )

            slices = balanced_row_slices(offsets, max(self.workers, 1))
            parts = self._fan_out("gravity", phase, slices, one)
        return GravityResult(
            acc=acc, phi=phi,
            n_p2p=sum(p.n_p2p for p in parts),
            n_m2p=sum(p.n_m2p for p in parts),
            path=parts[0].path if parts else "numpy",
        )
