"""Structure-of-arrays particle container.

The fundamental state of an SPH simulation is a set of particles with
positions, velocities, masses, smoothing lengths and thermodynamic fields.
Following the hpc-parallel idioms (and what an MPI+X mini-app would do in
C++), state lives in pre-allocated, C-contiguous float64 arrays — one array
per field, never an array of structs — so every kernel in the library can be
expressed as vectorized numpy over the whole set or an index subset.

Equal and variable particle masses (Tables 1-2 "Mass of Particles") are both
supported: ``m`` is always a per-particle array, and :meth:`has_equal_masses`
reports whether it is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

__all__ = ["ParticleSystem"]

#: Fields carried per particle: (name, is_vector)
_SCALAR_FIELDS = ("m", "h", "rho", "u", "p", "cs", "du")
_VECTOR_FIELDS = ("x", "v", "a")


@dataclass
class ParticleSystem:
    """SPH particle set in ``dim`` dimensions (SoA layout).

    Attributes
    ----------
    x, v, a:
        Position, velocity, acceleration — shape ``(n, dim)``.
    m, h:
        Mass and smoothing length — shape ``(n,)``.
    rho, u, p, cs, du:
        Density, specific internal energy, pressure, sound speed and rate of
        change of internal energy — shape ``(n,)``.
    ids:
        Stable global particle identifiers (survive domain exchanges).
    """

    x: np.ndarray
    v: np.ndarray
    m: np.ndarray
    h: np.ndarray
    rho: np.ndarray = None  # type: ignore[assignment]
    u: np.ndarray = None  # type: ignore[assignment]
    p: np.ndarray = None  # type: ignore[assignment]
    cs: np.ndarray = None  # type: ignore[assignment]
    a: np.ndarray = None  # type: ignore[assignment]
    du: np.ndarray = None  # type: ignore[assignment]
    ids: np.ndarray = None  # type: ignore[assignment]
    extra: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError(f"x must have shape (n, dim), got {self.x.shape}")
        n, dim = self.x.shape
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        if self.v.shape != (n, dim):
            raise ValueError(f"v must have shape {(n, dim)}, got {self.v.shape}")
        for name in ("m", "h"):
            raw = np.asarray(getattr(self, name), dtype=np.float64)
            if raw.ndim == 0:
                arr = np.full(n, float(raw))
            else:
                arr = np.ascontiguousarray(raw)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
            setattr(self, name, arr)
        if np.any(self.m <= 0.0):
            raise ValueError("particle masses must be positive")
        if np.any(self.h <= 0.0):
            raise ValueError("smoothing lengths must be positive")
        for name in ("rho", "u", "p", "cs", "du"):
            arr = getattr(self, name)
            if arr is None:
                arr = np.zeros(n)
            else:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                if arr.shape != (n,):
                    raise ValueError(f"{name} must have shape ({n},)")
            setattr(self, name, arr)
        if self.a is None:
            self.a = np.zeros((n, dim))
        else:
            self.a = np.ascontiguousarray(self.a, dtype=np.float64)
            if self.a.shape != (n, dim):
                raise ValueError(f"a must have shape {(n, dim)}")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
            if self.ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},)")

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of particles."""
        return self.x.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        """Spatial dimensionality (1, 2 or 3)."""
        return self.x.shape[1]

    def has_equal_masses(self, rtol: float = 1e-12) -> bool:
        """True when all particle masses coincide (Table 1 "Equal")."""
        return bool(np.allclose(self.m, self.m[0], rtol=rtol, atol=0.0))

    # ------------------------------------------------------------------
    # Global diagnostics
    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        return float(self.m.sum())

    def kinetic_energy(self) -> float:
        """Total kinetic energy ``sum_i 1/2 m_i v_i^2``."""
        return float(0.5 * np.sum(self.m * np.einsum("ij,ij->i", self.v, self.v)))

    def internal_energy(self) -> float:
        """Total internal energy ``sum_i m_i u_i``."""
        return float(np.sum(self.m * self.u))

    def linear_momentum(self) -> np.ndarray:
        """Total linear momentum vector."""
        return np.asarray(self.m @ self.v)

    def angular_momentum(self) -> np.ndarray:
        """Total angular momentum (scalar in 2-D, vector in 3-D)."""
        if self.dim == 3:
            return np.sum(self.m[:, None] * np.cross(self.x, self.v), axis=0)
        if self.dim == 2:
            lz = self.m * (self.x[:, 0] * self.v[:, 1] - self.x[:, 1] * self.v[:, 0])
            return np.array([lz.sum()])
        return np.zeros(1)

    def center_of_mass(self) -> np.ndarray:
        return np.asarray(self.m @ self.x) / self.total_mass

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n: int, dim: int = 3) -> "ParticleSystem":
        """All-zero system with unit masses and unit smoothing lengths."""
        return cls(
            x=np.zeros((n, dim)),
            v=np.zeros((n, dim)),
            m=np.ones(n),
            h=np.ones(n),
        )

    def copy(self) -> "ParticleSystem":
        """Deep copy of all state arrays."""
        return ParticleSystem(
            x=self.x.copy(),
            v=self.v.copy(),
            m=self.m.copy(),
            h=self.h.copy(),
            rho=self.rho.copy(),
            u=self.u.copy(),
            p=self.p.copy(),
            cs=self.cs.copy(),
            a=self.a.copy(),
            du=self.du.copy(),
            ids=self.ids.copy(),
            extra={k: v.copy() for k, v in self.extra.items()},
        )

    def select(self, index: np.ndarray) -> "ParticleSystem":
        """New system holding the particles chosen by ``index`` (mask or ints)."""
        return ParticleSystem(
            x=self.x[index],
            v=self.v[index],
            m=self.m[index],
            h=self.h[index],
            rho=self.rho[index],
            u=self.u[index],
            p=self.p[index],
            cs=self.cs[index],
            a=self.a[index],
            du=self.du[index],
            ids=self.ids[index],
            extra={k: v[index] for k, v in self.extra.items()},
        )

    @staticmethod
    def concatenate(parts: "list[ParticleSystem]") -> "ParticleSystem":
        """Concatenate systems (used to merge domain-exchange buffers)."""
        if not parts:
            raise ValueError("cannot concatenate an empty list of systems")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensionalities: {sorted(dims)}")
        keys = set(parts[0].extra)
        if any(set(p.extra) != keys for p in parts):
            raise ValueError("all parts must carry the same extra fields")
        cat = np.concatenate
        return ParticleSystem(
            x=cat([p.x for p in parts]),
            v=cat([p.v for p in parts]),
            m=cat([p.m for p in parts]),
            h=cat([p.h for p in parts]),
            rho=cat([p.rho for p in parts]),
            u=cat([p.u for p in parts]),
            p=cat([p.p for p in parts]),
            cs=cat([p.cs for p in parts]),
            a=cat([p.a for p in parts]),
            du=cat([p.du for p in parts]),
            ids=cat([p.ids for p in parts]),
            extra={k: cat([p.extra[k] for p in parts]) for k in keys},
        )

    # ------------------------------------------------------------------
    # Serialization (checkpoint substrate)
    # ------------------------------------------------------------------
    def state_arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(name, array)`` for every state field, extras included."""
        for name in _VECTOR_FIELDS + _SCALAR_FIELDS + ("ids",):
            yield name, getattr(self, name)
        for name in sorted(self.extra):
            yield f"extra:{name}", self.extra[name]

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Field-name → array mapping (arrays are *not* copied)."""
        return dict(self.state_arrays())

    @classmethod
    def from_dict(cls, data: Dict[str, np.ndarray]) -> "ParticleSystem":
        """Inverse of :meth:`to_dict`."""
        extra = {
            k.split(":", 1)[1]: np.asarray(v)
            for k, v in data.items()
            if k.startswith("extra:")
        }
        kwargs = {
            k: np.asarray(v) for k, v in data.items() if not k.startswith("extra:")
        }
        return cls(extra=extra, **kwargs)
