"""Fault-tolerance substrate (Tables 3-4, Section 4).

Checkpoint/restart with integrity sums and silent-data-corruption
detectors (checksum / range) for the step guard's health check.  The
modelled checkpoint intervals and the fail-stop simulator they are
checked against are part of the cluster model
(:mod:`repro.model.interval`, :mod:`repro.model.failures`).

Driver integration: :class:`ResilienceConfig` + :class:`CheckpointManager`
write atomic rolling checkpoints every ``checkpoint_every`` steps of the
real step loop, :class:`StepGuard` heals poisoned steps, and
:mod:`repro.resilience.chaos` injects the deterministic faults —
poisoned values and bit flips, failing checkpoint I/O, death of the job
process — the tests drive both with.
"""

from .chaos import (
    CheckpointIOChaos,
    NumericalChaosPolicy,
    NumericalFault,
    parse_numerical_faults,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointIOError,
    CheckpointManager,
    ResilienceConfig,
    find_latest_checkpoint,
    read_checkpoint,
    retry_io,
    write_checkpoint,
)
from .guard import (
    GuardConfig,
    GuardReport,
    PostMortem,
    StepGuard,
    UnrecoverableStepError,
)
from .sdc import ChecksumDetector, RangeDetector

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointIOError",
    "CheckpointManager",
    "ResilienceConfig",
    "write_checkpoint",
    "read_checkpoint",
    "retry_io",
    "find_latest_checkpoint",
    "CheckpointIOChaos",
    "NumericalChaosPolicy",
    "NumericalFault",
    "parse_numerical_faults",
    "GuardConfig",
    "GuardReport",
    "PostMortem",
    "StepGuard",
    "UnrecoverableStepError",
    "ChecksumDetector",
    "RangeDetector",
]
