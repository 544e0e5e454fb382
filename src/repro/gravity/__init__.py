"""Self-gravity solvers (Algorithm 1, step 4; Tables 1-2 "Self-Gravity").

Barnes-Hut tree gravity with Cartesian multipoles — quadrupole ("4-pole",
SPHYNX) through hexadecapole ("16-pole", ChaNGa) — plus the direct O(N^2)
baseline used for validation.
"""

from .._lazy import lazy_exports

__all__ = [
    "GravityResult",
    "barnes_hut_gravity",
    "potential_energy",
    "direct_gravity",
    "MULTIPOLE_ORDERS",
    "NodeMoments",
    "compute_node_moments",
    "evaluate_multipoles",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".barnes_hut": ("GravityResult", "barnes_hut_gravity", "potential_energy"),
    ".direct": ("direct_gravity",),
    ".multipole": (
        "MULTIPOLE_ORDERS", "NodeMoments", "compute_node_moments",
        "evaluate_multipoles",
    ),
})
