"""repro — SPH-EXA mini-app reproduction.

A Python reproduction of "Towards a Mini-App for Smoothed Particle
Hydrodynamics at Exascale" (Guerrera et al., CLUSTER 2018): the SPH-EXA
mini-app specified by Tables 2 and 4, the three parent-code presets
(SPHYNX, ChaNGa, SPH-flow), the two validation test cases (rotating
square patch, Evrard collapse), fault tolerance and Extrae-like tracing
with POP metrics.  The simulated cluster that redraws the evaluation
(Piz Daint, MareNostrum 4, decomposition, load balancing) is
:mod:`repro.model`, which no run imports.

The public surface is :mod:`repro.api` — specs in, handles out::

    from repro import api

    handle = api.submit(api.JobSpec(scenario="sod", n_steps=50))
    outcome = handle.result()   # deduped: same spec twice runs once
    print(outcome.drift, outcome.result_digest)

The classic driver loop remains supported for library use::

    from repro import make_square_patch, Simulation, SPHYNX, SquarePatchConfig

    particles, box, eos = make_square_patch(SquarePatchConfig(side=20, layers=10))
    sim = Simulation(particles, box, eos, config=SPHYNX)
    sim.run(n_steps=5)
    print(sim.conservation_drift())

``__all__`` below is the supported import surface.  Everything else
(tracing, tree, IC helpers, POP metrics, ...) still imports from its
owning submodule.
"""

from ._lazy import lazy_exports

__version__ = "21.0.0"

#: The supported import surface: the service entry points, the driver loop,
#: the presets and the scenario registry.  The helper families that
#: used to ride along (tracing, tree, ICs, kernels) stay importable
#: as attributes for compatibility but are no longer advertised here.
__all__ = [
    "__version__",
    # Service / redesigned API (lazily imported)
    "api",
    "JobSpec",
    "submit",
    # Driver loop
    "Simulation",
    "SimulationConfig",
    "RunConfig",
    "StepStats",
    "ParticleSystem",
    "RunReport",
    "ObservabilityConfig",
    # Presets
    "SPHYNX",
    "CHANGA",
    "SPHFLOW",
    "SPH_EXA",
    "PRESETS",
    "get_preset",
    # Scenario registry
    "Scenario",
    "get_scenario",
    "all_scenarios",
    "scenario_names",
]

#: Every name loads its submodule on first use (:mod:`repro._lazy`):
#: ``import repro.api`` pays for the run path, not for the service
#: manager, the other scenarios' ICs or the helper families.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("api", "JobSpec", "submit"),
    ".core": (
        "CHANGA", "PRESETS", "SPH_EXA", "SPHFLOW", "SPHYNX",
        "ConservationState", "ParticleSystem", "Phase", "RunConfig",
        "Simulation", "SimulationConfig", "StepStats", "get_preset",
        "measure_conservation", "relative_drift",
    ),
    ".observability": (
        "ObservabilityConfig", "PopMetrics", "RunReport", "State", "Tracer",
        "render_timeline",
    ),
    ".ics": (
        "EvrardConfig", "SquarePatchConfig", "make_evrard", "make_square_patch",
    ),
    ".kernels": ("available_kernels", "make_kernel"),
    ".scenarios": ("Scenario", "all_scenarios", "get_scenario", "scenario_names"),
    ".tree": ("Box", "NeighborList", "Octree", "cell_grid_search"),
})
