"""Base class for SPH interpolation kernels.

All kernels in this package use the *compact support* convention of the
SPH-EXA parent codes: the kernel is a function of ``q = r / h`` and vanishes
for ``q >= 2`` (support radius ``2 h``).  A kernel is fully described by a
dimensionless shape function ``f(q)`` and a per-dimension normalization
``sigma_d`` such that

    W(r, h) = sigma_d / h^d * f(r / h)

and ``\\int W(r, h) dV = 1`` in ``d`` dimensions.

Subclasses implement :meth:`shape` and :meth:`shape_derivative`; the base
class provides the normalized value, the radial derivative ``dW/dr``, the
vector gradient ``\\nabla_i W(r_i - r_j, h)`` and the smoothing-length
derivative ``dW/dh`` used by grad-h correction terms.
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["Kernel", "SUPPORT_RADIUS"]

#: All kernels share compact support ``q = r/h in [0, 2)``.
SUPPORT_RADIUS = 2.0

#: Order of the Gauss-Legendre rule behind :meth:`Kernel.sigma`.  The
#: registered shapes are polynomials or entire functions on the support,
#: so 64 nodes agree with adaptive quadrature to a few ulp (<= 6e-15
#: relative) at under a millisecond; the ``eigvalsh`` inside ``leggauss``
#: grows cubically (256 nodes cost 0.2-0.5 s) and buys nothing.
_SIGMA_NODES = 64

#: ``(kernel.cache_key(), dim) -> sigma`` for the integrated
#: normalizations, shared by every instance in the process.  A forked
#: service worker inherits only what its manager evaluated, and the
#: manager evaluates no kernel: it warms :func:`gauss_legendre_rule`
#: instead (``repro.service.worker.warm``), so a worker's integral is
#: one dot product.
_SIGMA_MEMO: Dict[tuple, float] = {}


@functools.cache
def gauss_legendre_rule() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_SIGMA_NODES``-point rule on [-1, 1].

    Computed once per process and shared read-only: the same arrays on
    every call, so every integral over them has the same bits.
    """
    nodes, weights = leggauss(_SIGMA_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class Kernel(abc.ABC):
    """Abstract SPH interpolation kernel with compact support ``2 h``."""

    #: Human-readable kernel name (e.g. ``"wendland-c2"``).
    name: str = "kernel"

    #: Dimensionless support radius in units of ``h``.
    support: float = SUPPORT_RADIUS

    # ------------------------------------------------------------------
    # Shape function (to be provided by subclasses)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def shape(self, q: np.ndarray) -> np.ndarray:
        """Dimensionless shape ``f(q)``; must vanish for ``q >= support``."""

    @abc.abstractmethod
    def shape_derivative(self, q: np.ndarray) -> np.ndarray:
        """Derivative ``f'(q)``; must vanish for ``q >= support``."""

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def sigma(self, dim: int) -> float:
        """Normalization constant ``sigma_d`` for ``dim`` in {1, 2, 3}.

        Subclasses with closed-form normalizations override
        :meth:`_sigma_exact`; the others are integrated once per process
        for each :meth:`cache_key`.
        """
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        exact = self._sigma_exact(dim)
        if exact is not None:
            return exact
        key = (self.cache_key(), dim)
        if key not in _SIGMA_MEMO:
            _SIGMA_MEMO[key] = self._sigma_numeric(dim)
        return _SIGMA_MEMO[key]

    def _sigma_exact(self, dim: int) -> float | None:
        """Closed-form normalization, or ``None`` to integrate numerically."""
        return None

    def _sigma_numeric(self, dim: int) -> float:
        """``1 / int f(q) dV`` by a fixed Gauss-Legendre rule on the support."""
        nodes, weights = gauss_legendre_rule()
        q = 0.5 * self.support * (nodes + 1.0)
        radial = float(np.dot(weights, q ** (dim - 1) * self.shape(q)))
        shell = (2.0, 2.0 * np.pi, 4.0 * np.pi)[dim - 1]
        return 1.0 / (shell * 0.5 * self.support * radial)

    # ------------------------------------------------------------------
    # Normalized kernel and derivatives
    # ------------------------------------------------------------------
    def cache_key(self) -> tuple:
        """Value-based identity for memoization across pickling.

        Kernel instances are stateless apart from their construction
        parameters, and every concrete kernel encodes those parameters in
        ``name`` (e.g. ``"sinc-s5"``), so two pickled copies of the same
        configuration share a key.
        """
        return (type(self).__qualname__, self.name)

    def value(self, r: np.ndarray, h: np.ndarray, dim: int = 3) -> np.ndarray:
        """Kernel value ``W(r, h)`` for separations ``r`` and lengths ``h``."""
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        return self.value_from_q(q, h, dim)

    def value_from_q(self, q: np.ndarray, h: np.ndarray, dim: int = 3) -> np.ndarray:
        """``W`` from a precomputed ``q = r/h``."""
        return self.sigma(dim) / np.power(h, dim) * self.shape(q)

    def radial_derivative(
        self, r: np.ndarray, h: np.ndarray, dim: int = 3
    ) -> np.ndarray:
        """Radial derivative ``dW/dr`` (a scalar, negative inside support)."""
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        return self.radial_derivative_from_q(q, h, dim)

    def radial_derivative_from_q(
        self, q: np.ndarray, h: np.ndarray, dim: int = 3
    ) -> np.ndarray:
        """``dW/dr`` from a precomputed ``q = r/h``."""
        return self.sigma(dim) / np.power(h, dim + 1) * self.shape_derivative(q)

    def gradient(
        self,
        dx: np.ndarray,
        r: np.ndarray,
        h: np.ndarray,
        dim: int = 3,
    ) -> np.ndarray:
        """Vector gradient ``\\nabla_i W(r_ij, h)`` for ``dx = x_i - x_j``.

        Parameters
        ----------
        dx:
            Separation vectors, shape ``(n, dim)``.
        r:
            Separation magnitudes ``|dx|``, shape ``(n,)``.
        h:
            Smoothing lengths, scalar or shape ``(n,)``.

        Returns
        -------
        Array of shape ``(n, dim)``.  The gradient at zero separation is
        zero (the kernel is smooth at the origin).
        """
        dx = np.asarray(dx, dtype=np.float64)
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        return self.gradient_from_q(dx, r, q, h, dim)

    def gradient_from_q(
        self,
        dx: np.ndarray,
        r: np.ndarray,
        q: np.ndarray,
        h: np.ndarray,
        dim: int = 3,
    ) -> np.ndarray:
        """Vector gradient from a precomputed ``q = r/h``."""
        dwdr = self.radial_derivative_from_q(q, h, dim)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(dwdr, np.where(r > 0.0, r, 1.0), out=dwdr)
            scale = np.where(r > 0.0, dwdr, 0.0)
        return dx * scale[..., None]

    def h_derivative(self, r: np.ndarray, h: np.ndarray, dim: int = 3) -> np.ndarray:
        """Smoothing-length derivative ``dW/dh`` used by grad-h terms.

        ``dW/dh = -sigma / h^{d+1} * (d * f(q) + q * f'(q))``.
        """
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        return self.h_derivative_from_q(q, h, dim)

    def h_derivative_from_q(
        self, q: np.ndarray, h: np.ndarray, dim: int = 3
    ) -> np.ndarray:
        """``dW/dh`` from a precomputed ``q = r/h``."""
        return (
            -self.sigma(dim)
            / np.power(h, dim + 1)
            * (dim * self.shape(q) + q * self.shape_derivative(q))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
