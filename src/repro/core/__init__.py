"""Core of the mini-app: particles, configuration, Algorithm-1 driver.

This package is the paper's primary contribution — the SPH-EXA mini-app
skeleton: a structure-of-arrays particle set, the feature-axis
configuration of Tables 1-4, the parent-code presets, the phase-labelled
simulation loop of Algorithm 1 and the conservation ledger.
"""

from .._lazy import lazy_exports

__all__ = [
    "ParticleSystem",
    "SimulationConfig",
    "RunConfig",
    "Simulation",
    "StepStats",
    "Phase",
    "ConservationState",
    "measure_conservation",
    "relative_drift",
    "SPHYNX",
    "CHANGA",
    "SPHFLOW",
    "SPH_EXA",
    "PRESETS",
    "get_preset",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("RunConfig", "SimulationConfig"),
    ".conservation": ("ConservationState", "measure_conservation", "relative_drift"),
    ".particles": ("ParticleSystem",),
    ".phases": ("Phase",),
    ".presets": ("CHANGA", "PRESETS", "SPH_EXA", "SPHFLOW", "SPHYNX", "get_preset"),
    ".simulation": ("Simulation", "StepStats"),
})
