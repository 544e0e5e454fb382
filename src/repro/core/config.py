"""Simulation configuration: the Table 1-4 feature axes as switches.

A :class:`SimulationConfig` selects one value per scientific axis of
Tables 1-2 (kernel, gradients, volume elements, time stepping, neighbour
discovery, self-gravity) and per computer-science axis of Tables 3-4
(domain decomposition, load balancing, checkpoint/restart, precision,
language/parallelization metadata).  The presets in
:mod:`repro.core.presets` instantiate the three parent codes' rows and the
mini-app outlook row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from ..backend.base import BACKEND_CHOICES
from ..observability.config import ObservabilityConfig
from ..sph.viscosity import ViscosityParams
from ..timestepping.criteria import TimestepParams
from ..timestepping.steppers import STEPPERS

if TYPE_CHECKING:  # avoid the core <-> resilience import cycles
    from ..resilience.chaos import NumericalChaosPolicy
    from ..resilience.checkpoint import ResilienceConfig
    from ..resilience.guard import GuardConfig

__all__ = [
    "KERNEL_CHOICES",
    "GRADIENT_CHOICES",
    "VOLUME_ELEMENT_CHOICES",
    "TIMESTEPPING_CHOICES",
    "GRAVITY_CHOICES",
    "DECOMPOSITION_CHOICES",
    "LOAD_BALANCING_CHOICES",
    "SimulationConfig",
    "ExecConfig",
    "RunConfig",
]

KERNEL_CHOICES = (
    "sinc-s3",
    "sinc-s5",
    "sinc-s6",
    "sinc-s7",
    "m4",
    "wendland-c2",
    "wendland-c4",
    "wendland-c6",
)
GRADIENT_CHOICES = ("standard", "iad")
VOLUME_ELEMENT_CHOICES = ("standard", "generalized")
TIMESTEPPING_CHOICES = tuple(STEPPERS)
#: None disables gravity; names map to multipole ranks (Table 1 wording).
GRAVITY_CHOICES = (None, "monopole", "quadrupole", "octupole", "hexadecapole")
DECOMPOSITION_CHOICES = (
    "uniform-slabs",  # SPHYNX "Straightforward"
    "orb",  # SPH-flow "Orthogonal Recursive Bisection"
    "sfc-morton",  # ChaNGa "Space Filling Curve"
    "sfc-hilbert",
    "block-index",  # no spatial locality at all (worst-case baseline)
)
LOAD_BALANCING_CHOICES = (
    "static",  # SPHYNX "None (static)"
    "dynamic",  # ChaNGa "Dynamic" (self-scheduling)
    "local-inner-outer",  # SPH-flow
)

_GRAVITY_ORDER = {"monopole": 0, "quadrupole": 2, "octupole": 3, "hexadecapole": 4}


@dataclass(frozen=True)
class SimulationConfig:
    """One column of Tables 1-4, expressed as runnable switches.

    Scientific axes (Tables 1-2) affect the numerics; computer-science
    axes (Tables 3-4) affect the simulated-cluster execution and the
    feature reports.  ``label`` and the metadata fields identify the
    configuration in benchmark output.
    """

    label: str = "sph-exa"
    # --- scientific axes (Tables 1-2) ---
    kernel: str = "sinc-s5"
    gradients: str = "iad"
    volume_elements: str = "generalized"
    xmass_exponent: float = 0.7
    timestepping: str = "global"
    gravity: Optional[str] = None
    gravity_theta: float = 0.5
    gravity_softening_factor: float = 0.05  # softening = factor * mean h
    n_neighbors: int = 100
    grad_h: bool = False
    viscosity: ViscosityParams = field(default_factory=ViscosityParams)
    timestep_params: TimestepParams = field(default_factory=TimestepParams)
    # --- computer-science axes (Tables 3-4) ---
    domain_decomposition: str = "sfc-hilbert"
    load_balancing: str = "dynamic"
    checkpoint_restart: bool = True
    precision: str = "64-bit"
    # informational metadata for the feature tables
    language: str = "Python (reproduction)"
    parallelization: str = "simulated MPI+X"
    reported_loc: Optional[int] = None

    def __post_init__(self) -> None:
        checks = [
            ("kernel", self.kernel, KERNEL_CHOICES),
            ("gradients", self.gradients, GRADIENT_CHOICES),
            ("volume_elements", self.volume_elements, VOLUME_ELEMENT_CHOICES),
            ("timestepping", self.timestepping, TIMESTEPPING_CHOICES),
            ("gravity", self.gravity, GRAVITY_CHOICES),
            (
                "domain_decomposition",
                self.domain_decomposition,
                DECOMPOSITION_CHOICES,
            ),
            ("load_balancing", self.load_balancing, LOAD_BALANCING_CHOICES),
        ]
        for name, value, choices in checks:
            if value not in choices:
                raise ValueError(
                    f"{name}={value!r} not in allowed choices {choices}"
                )
        if not 0.0 < self.gravity_theta <= 1.5:
            raise ValueError(f"gravity_theta out of range: {self.gravity_theta}")
        if self.n_neighbors < 4:
            raise ValueError(f"n_neighbors too small: {self.n_neighbors}")

    @property
    def gravity_order(self) -> Optional[int]:
        """Multipole rank for the tree code, or None when gravity is off."""
        return None if self.gravity is None else _GRAVITY_ORDER[self.gravity]

    def with_(self, **kwargs) -> "SimulationConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExecConfig:
    """Execution-layer knobs (orthogonal to the physics configuration).

    Neighbour lists always go through the Verlet-skin cache
    (:class:`~repro.tree.neighborlist.VerletNeighborCache`): cached and
    rebuilt lists give the same bits, so it is not a knob.

    Parameters
    ----------
    workers:
        An ``int`` (not a ``bool``).  ``0`` (default) runs every phase as
        one row slice on the driver thread; ``>= 1`` runs phases D-I as
        row slices on that many threads sharing the particle arrays
        (:mod:`repro.core.phase_executor`).  Results are bitwise the
        serial ones for any value; ``workers=1`` still exercises the
        whole slice machinery (useful for parity testing), a speedup
        needs more than one core.
    backend:
        Execution backend for the SPH pair loops, the tree walk and
        gravity: ``"numpy"`` (default, the vectorized reference),
        ``"cffi"`` (the compiled C unit from :mod:`repro.backend`) or
        ``"auto"`` (cffi when it builds, else numpy).  A named compiled
        backend that is unavailable on this host degrades to numpy with
        a single ``RuntimeWarning``.
    """

    workers: int = 0
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ValueError(f"workers must be an integer, got {self.workers!r}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown backend {self.backend!r}: backend must be one of "
                f"{', '.join(BACKEND_CHOICES)}"
            )


@dataclass(frozen=True)
class RunConfig:
    """How one :class:`~repro.core.simulation.Simulation` executes.

    The execution-environment counterpart to :class:`SimulationConfig`'s
    physics axes, one section per runtime subsystem:

    exec:
        :class:`ExecConfig` — backend and phase threads.  The default
        is serial numpy.
    resilience:
        :class:`~repro.resilience.checkpoint.ResilienceConfig` — rolling
        checkpoints.  ``None`` disables checkpointing.
    observability:
        :class:`~repro.observability.config.ObservabilityConfig` — span
        tracing and exporters.  On by default; ``enabled=False`` swaps in
        the no-op tracer.
    guard:
        :class:`~repro.resilience.guard.GuardConfig` — the self-healing
        step guard (snapshot ring + health checks + degradation ladder).
        ``None`` disables guarding; ``run()`` then calls ``step()``
        directly as before.
    numerical_chaos:
        :class:`~repro.resilience.chaos.NumericalChaosPolicy` —
        deterministic numerical fault injection into the step loop
        (test/validation tool; ``None`` in production runs).
    """

    exec: ExecConfig = field(default_factory=ExecConfig)
    resilience: Optional["ResilienceConfig"] = None
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    guard: Optional["GuardConfig"] = None
    numerical_chaos: Optional["NumericalChaosPolicy"] = None

    def with_(self, **kwargs) -> "RunConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
