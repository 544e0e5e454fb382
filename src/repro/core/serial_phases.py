"""The serial side of the driver's phase-execution seam (internal)."""

from __future__ import annotations

from ..gradients.iad import compute_iad_matrices
from ..gravity.barnes_hut import barnes_hut_gravity
from ..profiling.trace import State
from ..sph.density import compute_density
from ..sph.forces import compute_forces

__all__ = ["SerialPhases"]


class SerialPhases:
    """The zero-worker phase executor: open the phase span, call the
    phase function.

    Same four entry points, same signatures, as
    :class:`~repro.parallel.executor.ParallelEngine` (the pooled
    executor), so ``Simulation.compute_rates`` writes each phase once.
    ``pair_tokens`` and the ``backend`` *name* are what pool workers
    rebuild their context from; here the driver's live pair context and
    resolved backend are read per call instead, so
    ``Simulation.degrade_to_serial()`` takes effect on the next phase.
    The phase functions are reached through this module's global names —
    the e2e benchmark's tracer interposes on those.
    """

    def __init__(self, sim) -> None:
        self._sim = sim

    def _span(self, phase: str):
        return self._sim.tracer.phase(phase, State.USEFUL, self._sim.rank)

    def density(self, particles, nlist, kernel, box, *, phase,
                pair_tokens=None, backend=None, **options):
        with self._span(phase):
            return compute_density(
                particles, nlist, kernel, box,
                ctx=self._sim._pair_ctx, backend=self._sim.backend, **options,
            )

    def iad_matrices(self, particles, nlist, kernel, box, *, phase,
                     pair_tokens=None, backend=None):
        with self._span(phase):
            return compute_iad_matrices(
                particles, nlist, kernel, box,
                ctx=self._sim._pair_ctx, backend=self._sim.backend,
            )

    def forces(self, particles, nlist, kernel, box, *, phase,
               pair_tokens=None, backend=None, **options):
        with self._span(phase):
            return compute_forces(
                particles, nlist, kernel, box,
                ctx=self._sim._pair_ctx, backend=self._sim.backend, **options,
            )

    def gravity(self, x, m, *, phase, backend=None, **options):
        with self._span(phase):
            return barnes_hut_gravity(
                x, m, ops=self._sim.backend.ops, **options
            )
