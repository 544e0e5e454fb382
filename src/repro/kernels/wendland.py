"""Wendland C2, C4 and C6 kernels (Wendland 1995; Dehnen & Aly 2012).

Wendland kernels are the production choice of ChaNGa and SPH-flow (Table 1
of the paper): positive-definite Fourier transforms make them immune to the
pairing instability, which matters at the ~100-neighbour counts the paper
quotes for modern SPH runs.

Shapes below follow Dehnen & Aly (2012, Table 1), written in terms of
``l = r / H`` with ``H = 2 h`` the support radius; we substitute
``l = q / 2``.  The 1-D members differ functionally from the 2-D/3-D ones.
"""

from __future__ import annotations

import numpy as np

from .base import Kernel

__all__ = ["WendlandC2Kernel", "WendlandC4Kernel", "WendlandC6Kernel"]


def _plus(x: np.ndarray, power: int) -> np.ndarray:
    """Truncated power ``max(x, 0)^power``."""
    return np.where(x > 0.0, x, 0.0) ** power


class WendlandC2Kernel(Kernel):
    """Wendland C2: ``(1-l)^4 (1+4l)`` in 2-D/3-D, ``(1-l)^3 (1+3l)`` in 1-D."""

    name = "wendland-c2"

    def __init__(self, dim_hint: int = 3) -> None:
        self._dim_hint = dim_hint

    def shape(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            return _plus(1.0 - l, 3) * (1.0 + 3.0 * l)
        return _plus(1.0 - l, 4) * (1.0 + 4.0 * l)

    def shape_derivative(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            dfdl = -12.0 * l * _plus(1.0 - l, 2)
        else:
            dfdl = -20.0 * l * _plus(1.0 - l, 3)
        return 0.5 * dfdl

    def _sigma_exact(self, dim: int) -> float | None:
        # sigma in units of h^{-d}: Dehnen & Aly give C / H^d with H = 2h.
        if self._dim_hint == 1 and dim == 1:
            return (5.0 / 4.0) / 2.0
        if dim == 2:
            return (7.0 / np.pi) / 4.0
        if dim == 3:
            return (21.0 / (2.0 * np.pi)) / 8.0
        return None  # 1-D normalization of the 2/3-D shape: integrate


class WendlandC4Kernel(Kernel):
    """Wendland C4: ``(1-l)^6 (1+6l+35/3 l^2)`` in 2-D/3-D."""

    name = "wendland-c4"

    def __init__(self, dim_hint: int = 3) -> None:
        self._dim_hint = dim_hint

    def shape(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            return _plus(1.0 - l, 5) * (1.0 + 5.0 * l + 8.0 * l * l)
        return _plus(1.0 - l, 6) * (1.0 + 6.0 * l + (35.0 / 3.0) * l * l)

    def shape_derivative(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            dfdl = -_plus(1.0 - l, 4) * (14.0 * l + 56.0 * l * l)
        else:
            dfdl = -_plus(1.0 - l, 5) * ((56.0 / 3.0) * l + (280.0 / 3.0) * l * l)
        return 0.5 * dfdl

    def _sigma_exact(self, dim: int) -> float | None:
        if self._dim_hint == 1 and dim == 1:
            return (3.0 / 2.0) / 2.0
        if dim == 2:
            return (9.0 / np.pi) / 4.0
        if dim == 3:
            return (495.0 / (32.0 * np.pi)) / 8.0
        return None


class WendlandC6Kernel(Kernel):
    """Wendland C6: ``(1-l)^8 (1+8l+25l^2+32l^3)`` in 2-D/3-D."""

    name = "wendland-c6"

    def __init__(self, dim_hint: int = 3) -> None:
        self._dim_hint = dim_hint

    def shape(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            poly = 1.0 + 7.0 * l + 19.0 * l * l + 21.0 * l**3
            return _plus(1.0 - l, 7) * poly
        poly = 1.0 + 8.0 * l + 25.0 * l * l + 32.0 * l**3
        return _plus(1.0 - l, 8) * poly

    def shape_derivative(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        l = 0.5 * q
        if self._dim_hint == 1:
            dfdl = -6.0 * _plus(1.0 - l, 6) * l * (35.0 * l * l + 18.0 * l + 3.0)
        else:
            dfdl = -22.0 * _plus(1.0 - l, 7) * l * (16.0 * l * l + 7.0 * l + 1.0)
        return 0.5 * dfdl

    def _sigma_exact(self, dim: int) -> float | None:
        if self._dim_hint == 1 and dim == 1:
            return (55.0 / 32.0) / 2.0
        if dim == 2:
            return (78.0 / (7.0 * np.pi)) / 4.0
        if dim == 3:
            return (1365.0 / (64.0 * np.pi)) / 8.0
        return None
