"""Exact Riemann solver for the 1-D Euler equations (ideal gas).

The classic two-state Riemann problem — the Sod shock tube is the
instance with ``(rho, v, p)_L = (1, 0, 1)`` and ``(rho, v, p)_R =
(0.125, 0, 0.1)`` at ``gamma = 1.4`` — admits an exact solution built
from at most four constant/self-similar regions separated by a left
wave (shock or rarefaction), a contact discontinuity and a right wave.

The star-region pressure solves ``f_L(p*) + f_R(p*) + (v_R - v_L) = 0``
where each ``f`` is the Rankine–Hugoniot (shock) or isentropic
(rarefaction) relation of its side (Toro, *Riemann Solvers and Numerical
Methods for Fluid Dynamics*, ch. 4).  The root is bracketed and found
with Brent's method, so the solution is exact to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RiemannSolution", "solve_riemann"]


def _f_side(p: float, rho_k: float, p_k: float, gamma: float) -> tuple[float, float]:
    """Toro's ``f_K(p)`` and its contribution type for one side.

    Returns ``(f, a_k)`` with ``a_k`` the sound speed of that side.
    """
    a_k = np.sqrt(gamma * p_k / rho_k)
    if p > p_k:  # shock
        big_a = 2.0 / ((gamma + 1.0) * rho_k)
        big_b = (gamma - 1.0) / (gamma + 1.0) * p_k
        return (p - p_k) * np.sqrt(big_a / (p + big_b)), a_k
    # rarefaction
    return (
        2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0),
        a_k,
    )


@dataclass(frozen=True)
class RiemannSolution:
    """Exact solution of one Riemann problem, sampled via :meth:`sample`."""

    rho_l: float
    v_l: float
    p_l: float
    rho_r: float
    v_r: float
    p_r: float
    gamma: float
    p_star: float
    v_star: float

    @property
    def rho_star_l(self) -> float:
        """Density left of the contact."""
        if self.p_star > self.p_l:  # left shock
            r = self.p_star / self.p_l
            g = (self.gamma - 1.0) / (self.gamma + 1.0)
            return self.rho_l * (r + g) / (g * r + 1.0)
        return self.rho_l * (self.p_star / self.p_l) ** (1.0 / self.gamma)

    @property
    def rho_star_r(self) -> float:
        """Density right of the contact."""
        if self.p_star > self.p_r:  # right shock
            r = self.p_star / self.p_r
            g = (self.gamma - 1.0) / (self.gamma + 1.0)
            return self.rho_r * (r + g) / (g * r + 1.0)
        return self.rho_r * (self.p_star / self.p_r) ** (1.0 / self.gamma)

    def sample(self, xi: np.ndarray) -> dict[str, np.ndarray]:
        """Solution at similarity coordinates ``xi = (x - x0) / t``.

        Returns ``{"rho", "v", "p", "u"}`` arrays (``u`` the specific
        internal energy ``p / ((gamma - 1) rho)``).
        """
        xi = np.asarray(xi, dtype=np.float64)
        g = self.gamma
        a_l = np.sqrt(g * self.p_l / self.rho_l)
        a_r = np.sqrt(g * self.p_r / self.rho_r)
        rho = np.empty_like(xi)
        v = np.empty_like(xi)
        p = np.empty_like(xi)

        # ---- left side of the contact -------------------------------
        if self.p_star > self.p_l:  # left shock
            s_l = self.v_l - a_l * np.sqrt(
                (g + 1.0) / (2.0 * g) * self.p_star / self.p_l
                + (g - 1.0) / (2.0 * g)
            )
            left_undisturbed = xi < s_l
            left_star = (xi >= s_l) & (xi < self.v_star)
            for mask, (rk, vk, pk) in (
                (left_undisturbed, (self.rho_l, self.v_l, self.p_l)),
                (left_star, (self.rho_star_l, self.v_star, self.p_star)),
            ):
                rho[mask], v[mask], p[mask] = rk, vk, pk
        else:  # left rarefaction
            a_star_l = a_l * (self.p_star / self.p_l) ** ((g - 1.0) / (2.0 * g))
            head = self.v_l - a_l
            tail = self.v_star - a_star_l
            m_undist = xi < head
            m_fan = (xi >= head) & (xi < tail)
            m_star = (xi >= tail) & (xi < self.v_star)
            rho[m_undist], v[m_undist], p[m_undist] = self.rho_l, self.v_l, self.p_l
            fan = xi[m_fan]
            vf = 2.0 / (g + 1.0) * (a_l + (g - 1.0) / 2.0 * self.v_l + fan)
            af = a_l - (g - 1.0) / 2.0 * (vf - self.v_l)
            rho[m_fan] = self.rho_l * (af / a_l) ** (2.0 / (g - 1.0))
            v[m_fan] = vf
            p[m_fan] = self.p_l * (af / a_l) ** (2.0 * g / (g - 1.0))
            rho[m_star], v[m_star], p[m_star] = (
                self.rho_star_l,
                self.v_star,
                self.p_star,
            )

        # ---- right side of the contact ------------------------------
        if self.p_star > self.p_r:  # right shock
            s_r = self.v_r + a_r * np.sqrt(
                (g + 1.0) / (2.0 * g) * self.p_star / self.p_r
                + (g - 1.0) / (2.0 * g)
            )
            m_star = (xi >= self.v_star) & (xi < s_r)
            m_undist = xi >= s_r
            rho[m_star], v[m_star], p[m_star] = (
                self.rho_star_r,
                self.v_star,
                self.p_star,
            )
            rho[m_undist], v[m_undist], p[m_undist] = self.rho_r, self.v_r, self.p_r
        else:  # right rarefaction
            a_star_r = a_r * (self.p_star / self.p_r) ** ((g - 1.0) / (2.0 * g))
            tail = self.v_star + a_star_r
            head = self.v_r + a_r
            m_star = (xi >= self.v_star) & (xi < tail)
            m_fan = (xi >= tail) & (xi < head)
            m_undist = xi >= head
            rho[m_star], v[m_star], p[m_star] = (
                self.rho_star_r,
                self.v_star,
                self.p_star,
            )
            fan = xi[m_fan]
            vf = 2.0 / (g + 1.0) * (-a_r + (g - 1.0) / 2.0 * self.v_r + fan)
            af = a_r + (g - 1.0) / 2.0 * (vf - self.v_r)
            rho[m_fan] = self.rho_r * (af / a_r) ** (2.0 / (g - 1.0))
            v[m_fan] = vf
            p[m_fan] = self.p_r * (af / a_r) ** (2.0 * g / (g - 1.0))
            rho[m_undist], v[m_undist], p[m_undist] = self.rho_r, self.v_r, self.p_r

        u = p / ((g - 1.0) * rho)
        return {"rho": rho, "v": v, "p": p, "u": u}


def solve_riemann(
    rho_l: float,
    v_l: float,
    p_l: float,
    rho_r: float,
    v_r: float,
    p_r: float,
    gamma: float = 1.4,
) -> RiemannSolution:
    """Solve one Riemann problem exactly (star pressure via Brent)."""
    from scipy.optimize import brentq  # analytic gates only: not on the run path

    if min(rho_l, rho_r, p_l, p_r) <= 0.0:
        raise ValueError("densities and pressures must be positive")

    def pressure_function(p: float) -> float:
        f_l, a_l = _f_side(p, rho_l, p_l, gamma)
        f_r, a_r = _f_side(p, rho_r, p_r, gamma)
        return f_l + f_r + (v_r - v_l)

    # Bracket: pressure_function is monotone increasing in p.
    p_lo, p_hi = 1e-12 * min(p_l, p_r), 10.0 * max(p_l, p_r)
    while pressure_function(p_hi) < 0.0:
        p_hi *= 10.0
        if p_hi > 1e12 * max(p_l, p_r):  # pragma: no cover - defensive
            raise RuntimeError("failed to bracket the star pressure")
    p_star = brentq(pressure_function, p_lo, p_hi, xtol=1e-15, rtol=1e-14)
    f_l, _ = _f_side(p_star, rho_l, p_l, gamma)
    f_r, _ = _f_side(p_star, rho_r, p_r, gamma)
    v_star = 0.5 * (v_l + v_r) + 0.5 * (f_r - f_l)
    return RiemannSolution(
        rho_l=rho_l,
        v_l=v_l,
        p_l=p_l,
        rho_r=rho_r,
        v_r=v_r,
        p_r=p_r,
        gamma=gamma,
        p_star=float(p_star),
        v_star=float(v_star),
    )
