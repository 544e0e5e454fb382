"""The scenario library: eight validated workloads.

The paper's two test simulations (square patch, Evrard collapse) plus
six standard hydrodynamics workloads, each registered with the IC
parameters of its default and CI-sized runs, the solver configuration it
needs, conserved-quantity drift tolerances, and — for Sedov–Taylor, Sod,
Noh and Gresho — an analytic L1-error gate against the exact solution.

L1-error convention: for a field ``q`` over a sampling window ``W``,

    L1(q) = sum_{i in W} |q_i - q_exact(x_i, t)| / sum_{i in W} |q_exact|

(relative, particle-sampled).  Windows exclude regions where the
periodic wrap of the finite domain departs from the infinite-domain
exact solution (documented per gate below); the gate times are chosen so
no seam disturbance can have reached the window.

Tolerances are calibrated ceilings at the gate's resolution — measured
error plus ~40% headroom for platform variation — so a regression that
degrades shock capturing or vortex preservation trips them, while
BLAS/ordering noise does not.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.config import SimulationConfig
from ..core.particles import ParticleSystem
from ..sph.eos import EquationOfState
from ..sph.viscosity import ViscosityParams
from ..timestepping.criteria import TimestepParams
from .registry import AnalyticGate, Scenario, register

__all__ = ["register_builtin_scenarios"]

_CFL_ONLY = TimestepParams(use_energy_criterion=False)


def _l1(actual: np.ndarray, exact: np.ndarray) -> float:
    """Relative L1 error; denominator floored to dodge 0/0 on cold fields."""
    denom = float(np.abs(exact).sum())
    return float(np.abs(actual - exact).sum()) / max(denom, 1e-300)


# --- analytic gate evaluators -------------------------------------------


def _sedov_errors(
    particles: ParticleSystem, eos: EquationOfState, time: float
) -> Dict[str, float]:
    """Density/pressure L1 vs the Sedov–Taylor similarity solution.

    Window: r < 2 r_shock(t) — the ambient far field matches trivially
    and would dilute the error.  The default box (edge 1) keeps the
    shock well inside the periodic images at gate time.
    """
    from .analytic import SedovSolution

    sol = SedovSolution(gamma=5.0 / 3.0, j=3)
    r = np.sqrt(np.einsum("ij,ij->i", particles.x, particles.x))
    window = r < 2.0 * sol.shock_radius(time)
    exact = sol.sample(r[window], time)
    p_num = eos.pressure(particles.rho[window], particles.u[window])
    return {
        "rho": _l1(particles.rho[window], exact["rho"]),
        "p": _l1(p_num, exact["p"]),
    }


def _sod_errors(
    particles: ParticleSystem, eos: EquationOfState, time: float
) -> Dict[str, float]:
    """Density/velocity/pressure L1 vs the exact Riemann solution.

    Window: |x - 0.5| < 0.35.  The periodic seam at x = -0.5 (≡ 1.5)
    carries the mirror discontinuity; its fastest disturbance moves at
    |v| + c ≲ 1.8, so for t ≲ 0.35 the window is causally clean.
    """
    from .analytic import solve_riemann

    sol = solve_riemann(1.0, 0.0, 1.0, 0.125, 0.0, 0.1, gamma=1.4)
    x = particles.x[:, 0]
    window = np.abs(x - 0.5) < 0.35
    exact = sol.sample((x[window] - 0.5) / time)
    p_num = eos.pressure(particles.rho[window], particles.u[window])
    return {
        "rho": _l1(particles.rho[window], exact["rho"]),
        "v": _l1(particles.v[window, 0], exact["v"]),
        "p": _l1(p_num, exact["p"]),
    }


def _noh_errors(
    particles: ParticleSystem, eos: EquationOfState, time: float
) -> Dict[str, float]:
    """Density/pressure L1 vs the exact planar Noh solution.

    Window: |x| < 0.25.  The seam at |x| = 1 opens a vacuum gap whose
    edges free-stream inward at v0 = 1, reaching |x| = 0.25 only at
    t = 0.75 — far beyond the gate time.
    """
    from .analytic import NohSolution

    sol = NohSolution(gamma=5.0 / 3.0, j=1)
    x = particles.x[:, 0]
    window = np.abs(x) < 0.25
    exact = sol.sample(np.abs(x[window]), time)
    p_num = eos.pressure(particles.rho[window], particles.u[window])
    return {
        "rho": _l1(particles.rho[window], exact["rho"]),
        "p": _l1(p_num, exact["p"]),
    }


def _gresho_errors(
    particles: ParticleSystem, eos: EquationOfState, time: float
) -> Dict[str, float]:
    """Azimuthal-velocity L1 vs the steady vortex profile.

    The Gresho vortex is a steady state: the exact solution at any time
    is the initial condition, so the error measures angular-momentum
    diffusion by the scheme (mostly artificial viscosity).  Window:
    r < 0.45 (vortex plus rim; the quiescent corners match trivially).
    """
    from ..ics.gresho import gresho_velocity_profile

    x = particles.x
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    window = r < 0.45
    rw = np.maximum(r[window], 1e-300)
    v_phi = (
        x[window, 0] * particles.v[window, 1]
        - x[window, 1] * particles.v[window, 0]
    ) / rw
    return {"v_phi": _l1(v_phi, gresho_velocity_profile(r[window]))}


# --- the eight entries ---------------------------------------------------


def register_builtin_scenarios() -> None:
    """Populate the registry (idempotent only via the package import)."""
    register(
        Scenario(
            name="square-patch",
            description="Rotating square patch (paper Table 5, Colagrossi 2005)",
            builder="square_patch:make_square_patch",
            config_type="square_patch:SquarePatchConfig",
            params={"side": 12, "layers": 6},
            test_params={"side": 10, "layers": 6},
            sim_config=SimulationConfig(
                n_neighbors=30, timestep_params=_CFL_ONLY
            ),
            # Energy budget is wider than the rest: the mass-perturbation
            # pressure init relaxes over the first few steps.
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 5e-2},
        )
    )
    register(
        Scenario(
            name="evrard",
            size_param="n_target",
            description="Evrard adiabatic collapse (paper Table 5, Evrard 1988)",
            builder="evrard:make_evrard",
            config_type="evrard:EvrardConfig",
            params={"n_target": 2000},
            test_params={"n_target": 500},
            sim_config=SimulationConfig(n_neighbors=40, gravity="monopole"),
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 5e-2},
        )
    )
    register(
        Scenario(
            name="sedov",
            size_param="nx",
            description="Sedov-Taylor point blast, 3-D (exact similarity gate)",
            builder="sedov:make_sedov",
            config_type="sedov:SedovConfig",
            params={"nx": 10},
            test_params={"nx": 8},
            sim_config=SimulationConfig(
                n_neighbors=50, timestep_params=_CFL_ONLY
            ),
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 2e-2},
            analytic=AnalyticGate(
                evaluate=_sedov_errors,
                tolerances={"rho": 0.25, "p": 1.1},
                n_steps=15,
                params={"nx": 8},
                description="rho/p vs similarity solution, r < 2 r_shock "
                "(p budget is wide: the kernel-smoothed injection only "
                "approaches the point-blast similarity profile late)",
            ),
        )
    )
    register(
        Scenario(
            name="sod",
            size_param="n_target",
            description="Sod shock tube, 1-D (exact Riemann gate)",
            builder="sod:make_sod",
            config_type="sod:SodConfig",
            params={"n_target": 450},
            test_params={"n_target": 200},
            sim_config=SimulationConfig(n_neighbors=9),
            invariants={"mass": 1e-13, "momentum": 1e-6, "energy": 2e-2},
            analytic=AnalyticGate(
                evaluate=_sod_errors,
                tolerances={"rho": 0.02, "v": 0.12, "p": 0.025},
                n_steps=250,
                description="rho/v/p vs exact Riemann solution, central window",
            ),
        )
    )
    register(
        Scenario(
            name="noh",
            size_param="n_target",
            description="Noh implosion, planar 1-D (exact shock gate)",
            builder="noh:make_noh",
            config_type="noh:NohConfig",
            params={"n_target": 400},
            test_params={"n_target": 200},
            sim_config=SimulationConfig(
                n_neighbors=9, timestep_params=_CFL_ONLY
            ),
            invariants={"mass": 1e-13, "momentum": 1e-6, "energy": 2e-2},
            analytic=AnalyticGate(
                evaluate=_noh_errors,
                tolerances={"rho": 0.16, "p": 0.2},
                n_steps=350,
                description="rho/p vs exact Noh solution, |x| < 0.25",
            ),
        )
    )
    register(
        Scenario(
            name="gresho",
            size_param="nx",
            description="Gresho-Chan vortex, 2-D (steady-state preservation gate)",
            builder="gresho:make_gresho",
            config_type="gresho:GreshoConfig",
            params={"nx": 32},
            test_params={"nx": 16},
            sim_config=SimulationConfig(
                n_neighbors=24,
                viscosity=ViscosityParams(use_balsara=True),
            ),
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 2e-2},
            analytic=AnalyticGate(
                evaluate=_gresho_errors,
                tolerances={"v_phi": 0.05},
                n_steps=30,
                description="v_phi vs triangular vortex profile, r < 0.45",
            ),
        )
    )
    register(
        Scenario(
            name="kelvin-helmholtz",
            size_param="nx",
            description="Kelvin-Helmholtz shear layer, 2-D (McNally-style trigger)",
            builder="kelvin_helmholtz:make_kelvin_helmholtz",
            config_type="kelvin_helmholtz:KelvinHelmholtzConfig",
            params={"nx": 32},
            test_params={"nx": 16},
            sim_config=SimulationConfig(
                n_neighbors=24,
                viscosity=ViscosityParams(use_balsara=True),
            ),
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 2e-2},
        )
    )
    register(
        Scenario(
            name="wind-cloud",
            size_param="nx",
            description="Wind-cloud (blob) interaction, 3-D, density contrast 5",
            builder="wind_cloud:make_wind_cloud",
            config_type="wind_cloud:WindCloudConfig",
            params={"nx": 14},
            test_params={"nx": 10},
            sim_config=SimulationConfig(
                n_neighbors=50, timestep_params=_CFL_ONLY
            ),
            invariants={"mass": 1e-13, "momentum": 1e-9, "energy": 2e-2},
        )
    )
