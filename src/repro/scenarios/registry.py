"""Scenario registry: validated workloads as first-class objects.

A :class:`Scenario` bundles everything needed to run *and judge* one
workload: the IC builder with its parameters (full-size and a small
``test_params`` variant for CI), the :class:`~repro.core.config.SimulationConfig`
the workload needs, the conserved-quantity drift tolerances it promises
to hold, and — where an exact solution exists — an
:class:`AnalyticGate` that turns the run into a convergence test with a
hard L1-error bound.

The registry is the single source of truth consumed by the CLI
(``python -m repro run <scenario>`` / ``python -m repro scenarios``),
the conformance test suite, the golden-master tooling
(``tools/regen_goldens.py``) and the benchmarks: adding an entry in
:mod:`repro.scenarios.library` automatically enrolls it everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.config import RunConfig, SimulationConfig
from ..core.particles import ParticleSystem
from ..core.simulation import Simulation
from ..sph.eos import EquationOfState
from ..tree.box import Box

__all__ = [
    "AnalyticGate",
    "Scenario",
    "UnknownScenarioError",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]

BuildResult = Tuple[ParticleSystem, Box, EquationOfState]


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the registry."""

    def __init__(self, name: str, known: List[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown scenario {name!r}; known scenarios: {', '.join(known)}"
        )


@dataclass(frozen=True)
class AnalyticGate:
    """An exact solution and the L1-error budget a run must meet.

    ``evaluate(particles, eos, time)`` returns per-field L1 errors
    (relative, field-dependent — each library entry documents its
    definition and sampling window).  ``n_steps`` is the length of the
    gate run; ``tolerances`` maps field name to the maximum admissible
    error at the gate's resolution.  Gates are *asserted* in tier-1 CI:
    the tolerances are calibrated ceilings, not aspirations.
    """

    evaluate: Callable[[ParticleSystem, EquationOfState, float], Dict[str, float]]
    tolerances: Mapping[str, float]
    n_steps: int
    description: str = ""
    #: IC-builder overrides for the gate run (on top of the scenario's
    #: default params) — lets the gate pick its own resolution.
    params: Mapping[str, Any] = field(default_factory=dict)

    def check(
        self, particles: ParticleSystem, eos: EquationOfState, time: float
    ) -> Dict[str, float]:
        """Evaluate the errors and raise if any exceeds its tolerance."""
        errors = self.evaluate(particles, eos, time)
        over = {
            name: (err, self.tolerances[name])
            for name, err in errors.items()
            if name in self.tolerances and err > self.tolerances[name]
        }
        if over:
            detail = ", ".join(
                f"{k}: L1={e:.3e} > tol={t:.3e}" for k, (e, t) in over.items()
            )
            raise AssertionError(f"analytic gate failed: {detail}")
        return errors


@dataclass(frozen=True)
class Scenario:
    """One registered workload: builder + config + correctness contract.

    ``params`` are the IC-builder keyword arguments of the default
    (CLI-sized) run; ``test_params`` the small-N variant used by the
    conformance suite and the committed golden master.  ``invariants``
    maps :meth:`Simulation.conservation_drift` keys (``mass``,
    ``momentum``, ``energy``) to the maximum relative drift the scenario
    promises over ``golden_steps`` steps.
    """

    name: str
    description: str
    #: The IC builder and its config dataclass as ``"module:name"`` in
    #: :mod:`repro.ics`, imported on first use (:meth:`ic`): the registry
    #: lists eight scenarios, a run builds one.
    builder: str
    config_type: str
    params: Mapping[str, Any] = field(default_factory=dict)
    test_params: Mapping[str, Any] = field(default_factory=dict)
    sim_config: SimulationConfig = field(default_factory=SimulationConfig)
    invariants: Mapping[str, float] = field(
        default_factory=lambda: {"mass": 1e-13, "momentum": 1e-10, "energy": 2e-2}
    )
    analytic: Optional[AnalyticGate] = None
    golden_steps: int = 3
    default_steps: int = 10
    g_const: float = 1.0
    #: IC-config field the CLI's ``--n`` maps onto (``n_target`` counts
    #: particles, ``nx`` counts lattice cells per axis); ``None`` when the
    #: scenario is sized by other flags (square patch: --side/--layers).
    size_param: Optional[str] = None

    def ic(self) -> Tuple[Callable[..., BuildResult], type]:
        """``(builder, config_type)``, importing their IC module."""
        return _ics_object(self.builder), _ics_object(self.config_type)

    def build(
        self, *, test: bool = False, n_neighbors: Optional[int] = None,
        **overrides: Any,
    ) -> BuildResult:
        """Instantiate the IC config (params/test_params + overrides) and
        build, ``h`` starting at ``n_neighbors`` neighbours (default: the
        scenario's own ``sim_config.n_neighbors``)."""
        kwargs = dict(self.test_params if test else self.params)
        kwargs.update(overrides)
        n_neighbors = n_neighbors or self.sim_config.n_neighbors
        builder, config_type = self.ic()
        return builder(config_type(**kwargs), n_neighbors)

    def make_simulation(
        self,
        *,
        test: bool = False,
        run_config: Optional[RunConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
        **overrides: Any,
    ) -> Simulation:
        """Build the ICs, ``h`` starting at the run's neighbour target (a
        checkpoint restore brings its own back), and wrap them in a
        ready-to-run :class:`Simulation`."""
        config = sim_config if sim_config is not None else self.sim_config
        particles, box, eos = self.build(
            test=test, n_neighbors=config.n_neighbors, **overrides
        )
        return Simulation(
            particles,
            box,
            eos,
            config=config,
            g_const=self.g_const,
            run_config=run_config,
            scenario=self.name,
        )

    def run_gate(self) -> Dict[str, float]:
        """Run the analytic gate and assert its L1 budget; returns the errors.

        Raises :class:`ValueError` when the scenario has no gate and
        :class:`AssertionError` when any field exceeds its tolerance.
        """
        if self.analytic is None:
            raise ValueError(f"scenario {self.name!r} has no analytic gate")
        sim = self.make_simulation(**self.analytic.params)
        try:
            sim.run(n_steps=self.analytic.n_steps)
            return self.analytic.check(sim.particles, sim.eos, sim.time)
        finally:
            sim.close()


@functools.cache
def _ics_object(ref: str):
    module, _, name = ref.partition(":")
    return getattr(import_module(f"repro.ics.{module}"), name)


_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name must be unused)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name; raise :class:`UnknownScenarioError` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, scenario_names()) from None


def scenario_names() -> List[str]:
    """Registered names, in registration order."""
    return list(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """All registered scenarios, in registration order."""
    return list(_REGISTRY.values())
