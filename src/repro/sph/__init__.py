"""SPH physics kernels: density, forces, viscosity, EOS, smoothing lengths.

Implements step 3 of Algorithm 1 (and the h-adaptation half of step 2) with
the algorithm choices of Tables 1-2 as switches: standard vs generalized
volume elements, kernel-derivative vs IAD gradients, Monaghan viscosity
with optional Balsara limiting.
"""

from .density import compute_density, grad_h_terms
from .eos import (
    EquationOfState,
    IdealGasEOS,
    IsothermalEOS,
    WeaklyCompressibleEOS,
)
from .forces import ForceResult, compute_forces, velocity_divergence_curl
from .smoothing import (
    SmoothingConfig,
    adapt_smoothing_lengths,
    update_smoothing_lengths,
)
from .viscosity import ViscosityParams, balsara_switch, pairwise_viscosity

__all__ = [
    "compute_density",
    "grad_h_terms",
    "EquationOfState",
    "IdealGasEOS",
    "IsothermalEOS",
    "WeaklyCompressibleEOS",
    "ForceResult",
    "compute_forces",
    "velocity_divergence_curl",
    "SmoothingConfig",
    "adapt_smoothing_lengths",
    "update_smoothing_lengths",
    "ViscosityParams",
    "balsara_switch",
    "pairwise_viscosity",
]
