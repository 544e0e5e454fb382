"""Sinc kernel family S_n (Cabezón, García-Senz & Relaño 2008).

The sinc kernels are the production choice of SPHYNX (Table 1 of the paper).
They form a one-parameter family

    f_n(q) = ( sin(pi q / 2) / (pi q / 2) )^n        for 0 <= q < 2

with real exponent ``n``; larger ``n`` is sharper (S_3 resembles the cubic
spline, S_5..S_7 behave like Wendland kernels and resist pairing).  SPHYNX
additionally varies ``n`` per particle to sharpen the kernel in shocks; the
exponent here is a constructor parameter so that behaviour can be composed
on top.

Normalization constants have no convenient closed form and are integrated
numerically once per (n, dim) and process.
"""

from __future__ import annotations

import numpy as np

from .base import Kernel

__all__ = ["SincKernel"]


class SincKernel(Kernel):
    """Sinc kernel ``S_n`` with configurable real exponent ``n >= 3``."""

    def __init__(self, exponent: float = 5.0) -> None:
        if exponent < 2.0:
            raise ValueError(
                f"sinc exponent must be >= 2 for an integrable gradient, got {exponent}"
            )
        self.exponent = float(exponent)
        self.name = f"sinc-s{exponent:g}"

    def shape(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        # np.sinc(t) = sin(pi t)/(pi t), so sinc(q/2) = sin(pi q/2)/(pi q/2).
        base = np.sinc(0.5 * q)
        out = np.where((q >= 0.0) & (q < 2.0), np.abs(base) ** self.exponent, 0.0)
        # Guard the removable singularity at q == 0 (sinc handles it already
        # but abs()**n of a potential -0.0 must stay exact 1 there).
        return np.where(q == 0.0, 1.0, out)

    def shape_derivative(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        x = 0.5 * np.pi * q
        s = np.sinc(0.5 * q)
        # d/dq [ s(q)^n ] = n s^{n-1} ds/dq,
        # ds/dq = (pi/2) * (cos x / x - sin x / x^2) = (pi/2) * (cos x - s)/x
        with np.errstate(invalid="ignore", divide="ignore"):
            dsdq = 0.5 * np.pi * np.where(
                x > 0.0, (np.cos(x) - s) / np.where(x > 0.0, x, 1.0), 0.0
            )
        out = self.exponent * np.abs(s) ** (self.exponent - 1.0) * np.sign(s) * dsdq
        return np.where((q > 0.0) & (q < 2.0), out, 0.0)
