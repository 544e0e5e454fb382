"""Sedov–Taylor point-blast similarity solution.

A point energy ``E`` released at ``t = 0`` into a cold uniform medium of
density ``rho0`` drives a self-similar strong shock at

    R(t) = (E t^2 / (alpha rho0))^(1/(j+2))

with ``j`` the geometry index (1 planar, 2 cylindrical, 3 spherical) and
``alpha`` a dimensionless constant fixed by the total-energy integral.

The interior profile follows from the similarity ansatz (Sedov 1959;
Landau & Lifshitz §106).  With ``k = 2/(j+2)``, ``xi = r/R(t)`` and

    v   = k (r/t) U(xi)
    rho = rho0 Om(xi)
    c^2 = k^2 (r/t)^2 C(xi),     p = rho c^2 / gamma

the Euler equations reduce to three coupled ODEs in ``s = ln xi``
(derived by substituting the ansatz into continuity, momentum and the
entropy advection equation; ``' = d/ds``, ``L = (ln Om)'``):

    U' + (U - 1) L                           = -j U
    (U-1) U' + (C/gamma) L + C'/gamma        = U/k - U^2 - 2C/gamma
    (1-gamma)(U-1) L + (U-1) C'/C            = (2/k)(1 - kU)

integrated inward from the strong-shock jump conditions at ``xi = 1``:

    U(1) = 2/(gamma+1),  Om(1) = (gamma+1)/(gamma-1),
    C(1) = 2 gamma (gamma-1) / (gamma+1)^2.

Two independent checks pin the implementation down: the adiabatic
integral ``C = gamma (gamma-1) (1-U) U^2 / (2 (gamma U - 1))`` holds
along the trajectory to integration tolerance, and for ``gamma = 1.4``,
``j = 3`` the energy constant reproduces the literature value
``alpha = 0.851072`` (Kamm & Timmes 2007).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SedovSolution"]

#: Inner cutoff of the similarity integration; density vanishes toward the
#: center like a power law, so the profile below is physically ~vacuum.
_XI_MIN = 1e-4


def _shock_state(gamma: float) -> tuple[float, float, float]:
    """Strong-shock values ``(U, Om, C)`` at ``xi = 1``."""
    u1 = 2.0 / (gamma + 1.0)
    om1 = (gamma + 1.0) / (gamma - 1.0)
    c1 = 2.0 * gamma * (gamma - 1.0) / (gamma + 1.0) ** 2
    return u1, om1, c1


def _rhs(s: float, y: np.ndarray, gamma: float, j: int) -> np.ndarray:
    """Similarity ODE right-hand side; solves the 3x3 linear system."""
    u, ln_om, c = y
    k = 2.0 / (j + 2.0)
    a = np.array(
        [
            [1.0, u - 1.0, 0.0],
            [u - 1.0, c / gamma, 1.0 / gamma],
            [0.0, (1.0 - gamma) * (u - 1.0), (u - 1.0) / c],
        ]
    )
    b = np.array(
        [
            -j * u,
            u / k - u * u - 2.0 * c / gamma,
            (2.0 / k) * (1.0 - k * u),
        ]
    )
    du, dl, dc = np.linalg.solve(a, b)
    return np.array([du, dl, dc])


@dataclass
class SedovSolution:
    """Exact Sedov–Taylor blast profile for one ``(gamma, j)``.

    Parameters
    ----------
    e0, rho0:
        Released energy and ambient density.
    gamma:
        Adiabatic index of the ideal gas.
    j:
        Geometry index: 1 planar, 2 cylindrical, 3 spherical.
    p0, u0, v0:
        Ambient (pre-shock) pressure, specific internal energy and
        velocity used outside the shock (the similarity solution assumes
        they are negligible).
    """

    e0: float = 1.0
    rho0: float = 1.0
    gamma: float = 5.0 / 3.0
    j: int = 3
    p0: float = 0.0
    u0: float = 0.0
    v0: float = 0.0
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        if self.j not in (1, 2, 3):
            raise ValueError(f"geometry index j must be 1, 2 or 3, got {self.j}")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.e0 <= 0.0 or self.rho0 <= 0.0:
            raise ValueError("e0 and rho0 must be positive")
        self._integrate_profile()

    # ------------------------------------------------------------------
    def _integrate_profile(self) -> None:
        from scipy.integrate import solve_ivp  # analytic gates only: not on the run path

        gamma, j = self.gamma, self.j
        y0 = np.array(_shock_state(gamma))
        y0[1] = np.log(y0[1])  # integrate ln(Om) for positivity
        sol = solve_ivp(
            _rhs,
            (0.0, np.log(_XI_MIN)),
            y0,
            args=(gamma, j),
            method="Radau",
            dense_output=False,
            rtol=1e-10,
            atol=1e-12,
            max_step=0.05,
        )
        if not sol.success:  # pragma: no cover - defensive
            raise RuntimeError(f"Sedov similarity integration failed: {sol.message}")
        # Store on an ascending-xi grid for interpolation.
        self._xi = np.exp(sol.t[::-1])
        self._U = sol.y[0, ::-1]
        self._Om = np.exp(sol.y[1, ::-1])
        self._C = sol.y[2, ::-1]

        # Energy integral -> alpha: E = S_j k^2 (R^{j+2}/t^2) rho0 I with
        # I = int_0^1 Om (U^2/2 + C/(gamma(gamma-1))) xi^{j+1} dxi.
        s_geom = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[j]
        k = 2.0 / (j + 2.0)
        integrand = (
            self._Om
            * (0.5 * self._U**2 + self._C / (gamma * (gamma - 1.0)))
            * self._xi ** (j + 1)
        )
        self.alpha = float(s_geom * k * k * np.trapezoid(integrand, self._xi))

    # ------------------------------------------------------------------
    def adiabatic_residual(self, xi_min: float = 0.3) -> float:
        """Max relative deviation from the exact integral ``C(U)``.

        The integral states ``2 C (gamma U - 1) = gamma (gamma-1) (1-U)
        U^2``.  It is checked in product form over ``xi >= xi_min``: the
        relation has a pole at the center (``U -> 1/gamma``, reached to
        machine precision already around ``xi ~ 0.1``) where any residual
        formulation degenerates to amplified roundoff — and where the
        density is orders of magnitude below ambient anyway.
        """
        keep = self._xi >= xi_min
        u, c = self._U[keep], self._C[keep]
        lhs = 2.0 * c * (self.gamma * u - 1.0)
        rhs = self.gamma * (self.gamma - 1.0) * (1.0 - u) * u**2
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        return float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-300)))

    def shock_radius(self, t: float) -> float:
        """Shock position ``R(t)``."""
        if t <= 0.0:
            return 0.0
        return float(
            (self.e0 * t * t / (self.alpha * self.rho0)) ** (1.0 / (self.j + 2.0))
        )

    def shock_speed(self, t: float) -> float:
        """Shock velocity ``dR/dt = 2 R / ((j+2) t)``."""
        return 2.0 * self.shock_radius(t) / ((self.j + 2.0) * t)

    # ------------------------------------------------------------------
    def sample(self, r: np.ndarray, t: float) -> dict[str, np.ndarray]:
        """Exact ``{"rho", "p", "u", "v"}`` at radii ``r`` and time ``t``.

        ``v`` is the (signed) radial velocity.  Outside the shock the
        ambient state is returned; inside ``xi < 1e-4`` the near-vacuum
        center continues the innermost integrated values (density there
        is already orders of magnitude below ambient).
        """
        r = np.asarray(r, dtype=np.float64)
        big_r = self.shock_radius(t)
        xi = r / big_r
        inside = xi < 1.0
        xi_c = np.clip(xi, self._xi[0], 1.0)
        u_s = np.interp(xi_c, self._xi, self._U)
        om = np.interp(xi_c, self._xi, self._Om)
        c_s = np.interp(xi_c, self._xi, self._C)

        k = 2.0 / (self.j + 2.0)
        rho = np.where(inside, self.rho0 * om, self.rho0)
        v = np.where(inside, k * (r / t) * u_s, self.v0)
        p_in = self.rho0 * om * (k * r / t) ** 2 * c_s / self.gamma
        p = np.where(inside, p_in, self.p0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_int = np.where(
                inside, p_in / ((self.gamma - 1.0) * self.rho0 * om), self.u0
            )
        return {"rho": rho, "p": p, "u": u_int, "v": v}
