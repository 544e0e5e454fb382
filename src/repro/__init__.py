"""repro — SPH-EXA mini-app reproduction.

A Python reproduction of "Towards a Mini-App for Smoothed Particle
Hydrodynamics at Exascale" (Guerrera et al., CLUSTER 2018): the SPH-EXA
mini-app specified by Tables 2 and 4, the three parent-code presets
(SPHYNX, ChaNGa, SPH-flow), the two validation test cases (rotating
square patch, Evrard collapse), and the substrates the evaluation needs —
a simulated cluster with machine models of Piz Daint and MareNostrum 4,
domain decomposition, dynamic load balancing, fault tolerance and
Extrae-like tracing with POP metrics.

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

from .core import (
    CHANGA,
    PRESETS,
    SPH_EXA,
    SPHFLOW,
    SPHYNX,
    ConservationState,
    ParticleSystem,
    Phase,
    RunConfig,
    Simulation,
    SimulationConfig,
    StepStats,
    get_preset,
    measure_conservation,
    relative_drift,
)
from .observability import (
    ObservabilityConfig,
    PopMetrics,
    RunReport,
    State,
    Tracer,
    render_timeline,
)
from .ics import (
    EvrardConfig,
    SquarePatchConfig,
    make_evrard,
    make_square_patch,
)
from .kernels import available_kernels, make_kernel
from .scenarios import Scenario, all_scenarios, get_scenario, scenario_names
from .tree import Box, NeighborList, Octree, cell_grid_search

__version__ = "18.0.0"

#: The supported import surface, pruned to the PR-10 API redesign: the
#: service entry points (lazy — see ``__getattr__``), the driver loop,
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

#: Lazily-resolved exports: ``repro.api`` pulls in the service (sqlite,
#: multiprocessing) that plain library users (``from repro import
#: Simulation``) should not pay for at import time.
_LAZY = {"api", "JobSpec", "submit"}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        _api = importlib.import_module(".api", __name__)
        if name == "api":
            return _api
        return getattr(_api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _LAZY)
