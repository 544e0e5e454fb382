"""Amdahl-form cost model fit from measured step times.

The measured counterpart of the modelled serial fractions in
:mod:`repro.runtime.cluster`, in the form the scaling analysis of the
source paper is built on::

    t(N, w) = (serial + parallel / max(w, 1)) * (N / N0) + constant

``serial`` and ``parallel`` are per-``N0``-particles seconds (pair work
at fixed neighbour count is linear in N, so normalizing by a reference
size ``N0`` keeps the coefficients in human range); ``w`` is the
effective worker count (``workers=0`` — the serial path — executes on
one lane).

The fit is plain least squares on the design matrix ``[N', N'/w, 1]``
with non-negativity enforced by column dropping (a negative parallel
coefficient re-fits serial-only and vice versa), which keeps the model
well-behaved on small sample counts.  Prediction intervals come from
the residual spread: ``±z * sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Observation", "Prediction", "AmdahlCostModel"]

#: ~95% two-sided normal interval.
_Z = 1.96


@dataclass(frozen=True)
class Observation:
    """One measured cost point: a (size, parallelism) -> seconds fact."""

    n_particles: int
    workers: int
    t_seconds: float

    @property
    def lanes(self) -> int:
        """Effective parallel lanes: the serial path still runs on one."""
        return max(1, int(self.workers))


@dataclass(frozen=True)
class Prediction:
    """A model answer with its uncertainty band."""

    t_seconds: float
    lo_seconds: float
    hi_seconds: float
    sigma_seconds: float
    n_observations: int
    #: ``"amdahl"`` (the fit) or ``"prior"`` (no data — the
    #: caller-provided fallback).
    source: str = "amdahl"

    def __contains__(self, t: float) -> bool:
        return self.lo_seconds <= float(t) <= self.hi_seconds


@dataclass
class AmdahlCostModel:
    """``t(N, w) = (serial + parallel / w) * N/N0 + constant``.

    Parameters
    ----------
    n0:
        Reference particle count the coefficients are normalized to.
        Defaults to the first observation's size, so a fixed-N fit
        reads directly in seconds.
    """

    n0: Optional[int] = None
    observations: List[Observation] = field(default_factory=list)
    serial_s: float = 0.0
    parallel_s: float = 0.0
    constant_s: float = 0.0
    sigma_s: float = math.inf
    _fitted: bool = False

    def observe(self, n_particles: int, workers: int, t_seconds: float) -> None:
        if not (t_seconds >= 0.0 and math.isfinite(t_seconds)):
            raise ValueError(f"bad observation time: {t_seconds}")
        self.observations.append(
            Observation(int(n_particles), int(workers), float(t_seconds))
        )
        self._fitted = False

    def fit(self) -> "AmdahlCostModel":
        """Least-squares fit; degrades gracefully on tiny samples.

        * 0 observations — stays at the zero model (predict returns the
          prior path).
        * 1-2 observations — mean model (``constant = mean t``).
        * ≥ 3 — full ``[N', N'/w, 1]`` fit with non-negativity by
          column dropping.
        """
        obs = self.observations
        if not obs:
            self._fitted = True
            return self
        if self.n0 is None:
            self.n0 = obs[0].n_particles
        t = np.array([o.t_seconds for o in obs])
        if len(obs) < 3:
            self.serial_s = self.parallel_s = 0.0
            self.constant_s = float(t.mean())
            self.sigma_s = float(t.std()) if len(obs) > 1 else math.inf
        else:
            nn = np.array([o.n_particles / self.n0 for o in obs])
            w = np.array([o.lanes for o in obs], dtype=float)
            coeffs = self._nonneg_lstsq(nn, nn / w, t)
            self.serial_s, self.parallel_s, self.constant_s = coeffs
            pred = self.serial_s * nn + self.parallel_s * nn / w + self.constant_s
            resid = t - pred
            dof = max(1, len(obs) - 3)
            self.sigma_s = float(np.sqrt(np.sum(resid**2) / dof))
        self._fitted = True
        return self

    @staticmethod
    def _nonneg_lstsq(
        c_serial: np.ndarray, c_parallel: np.ndarray, t: np.ndarray
    ) -> Tuple[float, float, float]:
        """lstsq over ``[serial, parallel, const]`` with coefficients
        clamped non-negative by dropping offending columns and refitting."""
        columns = {"serial": c_serial, "parallel": c_parallel,
                   "const": np.ones_like(t)}
        active = list(columns)
        while active:
            design = np.stack([columns[k] for k in active], axis=1)
            sol, *_ = np.linalg.lstsq(design, t, rcond=None)
            worst = None
            for k, v in zip(active, sol):
                if v < 0.0 and (worst is None or v < worst[1]):
                    worst = (k, v)
            if worst is None:
                out = dict(zip(active, sol))
                return (
                    float(out.get("serial", 0.0)),
                    float(out.get("parallel", 0.0)),
                    float(out.get("const", 0.0)),
                )
            active.remove(worst[0])
        return (0.0, 0.0, float(t.mean()))

    def predict(
        self,
        n_particles: int,
        workers: int = 0,
        prior_s: Optional[float] = None,
    ) -> Prediction:
        """Predicted step/phase seconds with a ~95% interval.

        ``prior_s`` is returned (with an infinite band) when the model
        has no observations at all — callers never have to special-case
        the cold start.
        """
        if not self._fitted:
            self.fit()
        n_obs = len(self.observations)
        if not n_obs:
            t = float(prior_s) if prior_s is not None else math.nan
            return Prediction(t, -math.inf, math.inf, math.inf, 0, "prior")
        nn = n_particles / (self.n0 or n_particles or 1)
        lanes = max(1, int(workers))
        t = self.serial_s * nn + self.parallel_s * nn / lanes + self.constant_s
        sigma = self.sigma_s
        if not math.isfinite(sigma):
            return Prediction(t, -math.inf, math.inf, sigma, n_obs)
        band = _Z * sigma
        return Prediction(t, t - band, t + band, sigma, n_obs)

    def serial_fraction(self, n_particles: int) -> float:
        """Amdahl serial fraction f = serial / (serial + parallel) at N."""
        tot = self.serial_s + self.parallel_s
        if tot <= 0.0:
            return math.nan
        return self.serial_s / tot
