"""Shared-memory parallel execution layer (node-level, process-based).

The paper's mini-app targets hybrid MPI+X execution; this package supplies
the intra-node "X": a persistent process pool fed through a
``multiprocessing.shared_memory`` arena, evaluating the expensive
Algorithm-1 phases (density, IAD, momentum/energy, gravity) over
pair-balanced slices of the CSR neighbour list.  The slice decomposition
preserves per-particle reduction order, so pool results match the serial
path bit-for-bit — which the parity tests pin down to rtol = 1e-12.

Fault tolerance (:mod:`repro.parallel.supervisor`): the pool always runs
under a supervisor — crashed workers are respawned, hung ones deadline
out and their chunks re-issue, late replies are discarded by stamp, and
when everything else fails the phase completes serially in the parent.
"""

from ..core.config import ExecConfig
from .executor import ParallelEngine
from .pool import WorkerPool, row_chunks
from .shm import ArenaView, ShmArena
from .supervisor import (
    RecoveryEvent,
    SupervisedPool,
    SupervisorConfig,
    SupervisorStats,
)

__all__ = [
    "ExecConfig",
    "ParallelEngine",
    "WorkerPool",
    "row_chunks",
    "ArenaView",
    "ShmArena",
    "SupervisedPool",
    "SupervisorConfig",
    "SupervisorStats",
    "RecoveryEvent",
]
