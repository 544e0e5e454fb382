"""One row per code: its Table 3/4 entries and the facts the cluster charges.

A :class:`~repro.core.config.SimulationConfig` holds what a run reads.
How a code decomposes and balances its domain, what it is written in and
how it parallelizes, and the per-code shares the cluster model charges
(serial thread fractions, replicated global work) are read only by the
model and the feature tables: one :class:`CodeRow` per code, keyed by its
preset's ``label``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .decomposition import DECOMPOSITION_METHODS

__all__ = ["THREAD_IMBALANCE", "CodeRow", "CODES", "code_row"]

#: Load-balancing scheme -> the thread-scheduling imbalance multiplier
#: the cluster charges on the parallel part of a phase.
THREAD_IMBALANCE = {
    "static": 1.10,  # SPHYNX "None (static)"
    "dynamic": 1.02,  # ChaNGa "Dynamic" (self-scheduling)
    "local-inner-outer": 1.0,  # SPH-flow
}


@dataclass(frozen=True)
class CodeRow:
    """One code's Table 3/4 row and its cluster-model facts."""

    domain_decomposition: str
    load_balancing: str
    language: str
    parallelization: str
    #: MPI+threads: one rank per NUMA domain (pure MPI: one per core).
    hybrid: bool
    #: Fraction of all step work replicated on every rank instead of
    #: partitioned (global-tree top levels, per-step decomposition) — the
    #: non-scaling floor that makes strong scaling stall.
    replicated_fraction: float
    #: Serial thread fraction per phase letter (Amdahl within a rank);
    #: phases not named here use the cluster's default.
    serial_fractions: Dict[str, float] = field(default_factory=dict, hash=False)
    checkpoint_restart: bool = True
    precision: str = "64-bit"
    reported_loc: Optional[int] = None

    def __post_init__(self) -> None:
        for name, choices in (
            ("domain_decomposition", DECOMPOSITION_METHODS),
            ("load_balancing", tuple(THREAD_IMBALANCE)),
        ):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name}={getattr(self, name)!r} not in allowed choices {choices}"
                )

    def with_(self, **kwargs) -> "CodeRow":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)


#: Preset label -> row.  SPHYNX 1.3.1's serial tree build is what the
#: paper's trace analysis found ("the importance of parallelizing the
#: tree building (phase A)"), with idle regions in B, D and J.  The
#: replicated fractions reproduce the plateau heights of Figs. 2-3
#: (ChaNGa's square-patch curve flattens near 1/8 of its single-node
#: time, SPH-flow's near 1/11; SPHYNX's floor is its halo work instead).
CODES: Dict[str, CodeRow] = {
    "SPHYNX": CodeRow(
        domain_decomposition="uniform-slabs",  # "Straightforward"
        load_balancing="static",  # "None (static)"
        language="Fortran 90",
        parallelization="MPI+OpenMP",
        hybrid=True,
        replicated_fraction=0.012,
        serial_fractions={"A": 1.0, "B": 0.25, "D": 0.35, "J": 0.70},
        reported_loc=25_000,
    ),
    "ChaNGa": CodeRow(
        domain_decomposition="sfc-morton",  # "Space Filling Curve"
        load_balancing="dynamic",
        language="C++",
        parallelization="MPI+OpenMP+CUDA",
        hybrid=True,
        replicated_fraction=0.10,
        serial_fractions={"A": 0.10, "J": 0.10},
        reported_loc=110_000,
    ),
    "SPH-flow": CodeRow(
        domain_decomposition="orb",  # "Orthogonal Recursive Bisection"
        load_balancing="local-inner-outer",
        language="Fortran 90",
        parallelization="MPI",
        hybrid=False,
        replicated_fraction=0.008,
        reported_loc=37_000,
    ),
    # The mini-app outlook (Table 4): ORB or SFC, "DLB with
    # self-scheduling", "Optimal interval / Multilevel" checkpoints.
    "SPH-EXA": CodeRow(
        domain_decomposition="sfc-hilbert",
        load_balancing="dynamic",
        language="C++ (target) / Python (this reproduction)",
        parallelization="MPI + {OpenMP, HPX} + {OpenACC, CUDA} (target)",
        hybrid=True,
        replicated_fraction=0.004,
        serial_fractions={"A": 0.05},
    ),
}


def code_row(label: str) -> CodeRow:
    """The row of the code whose preset is labelled ``label``."""
    try:
        return CODES[label]
    except KeyError:
        raise ValueError(
            f"no code row for preset label {label!r}; known: {sorted(CODES)}"
        ) from None
