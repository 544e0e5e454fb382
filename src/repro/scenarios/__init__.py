"""Scenario library and registry — validated workloads as data.

Importing this package registers the eight built-in scenarios (the
paper's square patch and Evrard collapse plus Sedov–Taylor, Sod, Noh,
Gresho, Kelvin–Helmholtz and wind–cloud) without importing their IC
builders, exact solutions or golden records: each loads when a run or a
check first needs it.  Each entry bundles its IC
builder, solver configuration, conserved-quantity tolerances, committed
golden master and — where an exact solution exists — an analytic
L1-error gate (:mod:`repro.scenarios.analytic`).

    from repro.scenarios import get_scenario
    sim = get_scenario("sedov").make_simulation()
    sim.run(n_steps=10)
"""

from .._lazy import lazy_exports
from .library import register_builtin_scenarios
from .registry import (
    AnalyticGate,
    Scenario,
    UnknownScenarioError,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)

register_builtin_scenarios()

__all__ = [
    "AnalyticGate",
    "Scenario",
    "UnknownScenarioError",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "register_builtin_scenarios",
    "RiemannSolution",
    "solve_riemann",
    "SedovSolution",
    "NohSolution",
    "GOLDEN_RTOL",
    "GOLDEN_ATOL",
    "golden_path",
    "run_scenario_record",
    "record_run",
    "compare_records",
    "write_golden",
    "load_golden",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analytic": ("NohSolution", "RiemannSolution", "SedovSolution", "solve_riemann"),
    ".golden": (
        "GOLDEN_ATOL", "GOLDEN_RTOL", "compare_records", "golden_path",
        "load_golden", "record_run", "run_scenario_record", "write_golden",
    ),
})
