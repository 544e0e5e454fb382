"""The phase executor: how the driver runs Algorithm-1 phases D-I.

One class, three entry points (``density``, which also returns the IAD
matrices of its pass on request, ``forces`` and ``gravity``) — the seam
``Simulation.compute_rates`` calls each phase through.  With ``workers
== 0`` an entry point opens the phase span and calls the phase function
once with the evaluation's pair record.  With
``workers >= 1`` it cuts the query rows into ``workers`` pair-balanced
slices (gravity: particle-balanced slices of the target leaves) and runs
the *same* phase function per slice (``rows=(lo, hi)`` /
``target_leaves=``), one slice per thread, on threads that share the
particle arrays — the paper's node-level model.  The compiled ops and
numpy's ufuncs release the interpreter lock, a slice writes only its own
``out[lo:hi]``, and every row is reduced in the same order as in the
single call, so any ``workers`` reproduces the serial result bit for
bit.

Nothing crosses a process boundary: slices read the driver's live
backend, kernel and box (never copies, so
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

import numpy as np

from ..gravity.barnes_hut import GravityResult, barnes_hut_gravity
from ..gravity.multipole import compute_node_moments
from ..observability.tracer import State
from ..sph.density import compute_density, grad_h_terms
from ..sph.forces import ForceResult, compute_forces, velocity_divergence_curl
from ..sph.viscosity import balsara_switch
from ..tree.neighborlist import balanced_row_slices
from ..tree.octree import expand_ranges

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

    def _span(self, phase: str, state: State = State.USEFUL):
        return self._sim.tracer.phase(phase, state)

    def _once(self, phase: str, fn, *pair_args, **options):
        """``workers == 0``: one call, on the evaluation's pair record."""
        with self._span(phase):
            return fn(*pair_args, backend=self._sim.backend, **options)

    def _fan_out(self, kind: str, phase: str, slices: list, fn) -> list:
        """``[fn(k, lo, hi) for k, (lo, hi) in enumerate(slices)]`` on the
        threads, one slice per thread, each timing its slice.  The driver
        records those spans after the join, in slice order, on thread row
        ``k + 1`` — the tracer is only ever written from the driver thread.
        """
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

    def _rows(self, phase: str, pairs, particles, nlist, kernel, box):
        """The row-sliced fan-out of one phase: ``run(kind, fn, outs)``
        calls ``fn(..., rows=(lo, hi))`` per pair-balanced slice, with
        that slice's pair record and the driver's backend, and stores
        what it returns in ``out[lo:hi]`` of each buffer in ``outs``.

        What every slice reads that is made lazily — the kernel
        normalisation, memoised per process, and the slices' records
        (``None`` on the compiled path) — is made here, on the driver
        thread.
        """
        sim = self._sim
        backend = sim.backend
        kernel.sigma(particles.dim)
        slices = balanced_row_slices(nlist.offsets, self.workers)
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

    # -- the three entry points: ``pair_args`` = particles, nlist, kernel,
    # -- box; ``pairs`` = the evaluation's pair record (``None`` on the
    # -- compiled path); ``options`` = the phase function's own keywords,
    # -- spelled out by the one caller (``Simulation.compute_rates``)
    def density(self, *pair_args, pairs, phase: str, **options):
        """``compute_density``'s return: ``particles.rho``, or with
        ``return_iad`` also the IAD matrices of the same pass."""
        if not self.workers:
            return self._once(
                phase, compute_density, *pair_args, pairs=pairs, **options
            )
        particles = pair_args[0]
        n, dim = particles.n, particles.dim
        iad = options.get("return_iad", False)
        with self._span(phase, State.FORK_JOIN):
            run = self._rows(phase, pairs, *pair_args)
            source = particles
            generalized = options.get("volume_elements") == "generalized"
            if generalized and np.any(particles.rho <= 0.0):
                # The generalized estimator reads a global density: fill
                # a standard summation first (the serial bootstrap).
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
        return (particles.rho, c) if iad else particles.rho

    def forces(self, *pair_args, pairs, phase: str, **options) -> ForceResult:
        if not self.workers:
            return self._once(
                phase, compute_forces, *pair_args, pairs=pairs, **options
            )
        particles = pair_args[0]
        n = particles.n
        with self._span(phase, State.FORK_JOIN):
            run = self._rows(phase, pairs, *pair_args)
            # Every cross-particle input of the force loop is global, so
            # each pass is complete before the next one reads it.
            omega = balsara_f = None
            if options["grad_h"]:
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

    def gravity(self, x, m, *, phase: str, **options) -> GravityResult:
        ops = self._sim.backend.ops
        if not self.workers:
            with self._span(phase):
                return barnes_hut_gravity(x, m, ops=ops, **options)
        tree = options["tree"]
        with self._span(phase, State.FORK_JOIN):
            moments = compute_node_moments(
                tree, x, m, order=options["order"], ops=ops
            )
            leaves = np.nonzero(tree.is_leaf() & (tree.node_counts() > 0))[0]
            counts = tree.pend[leaves] - tree.pstart[leaves]
            offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
            acc, phi = np.zeros_like(x), np.zeros(x.shape[0])

            def one(k, lo, hi) -> GravityResult:
                part = barnes_hut_gravity(
                    x, m, moments=moments, ops=ops,
                    target_leaves=leaves[lo:hi], **options,
                )
                # Disjoint leaves hold disjoint particles: no slice
                # writes a row another slice writes.
                rows = tree.order[
                    expand_ranges(tree.pstart[leaves[lo:hi]], counts[lo:hi])
                ]
                acc[rows], phi[rows] = part.acc[rows], part.phi[rows]
                return part

            parts = self._fan_out(
                "gravity", phase, balanced_row_slices(offsets, self.workers), one
            )
        return GravityResult(
            acc=acc, phi=phi,
            n_p2p=sum(p.n_p2p for p in parts),
            n_m2p=sum(p.n_m2p for p in parts),
            path=parts[0].path if parts else "numpy",
        )
