"""Cartesian multipole moments and their contracted far-field evaluation.

Table 1 of the paper records gravity as "Multipoles (4-pole)" for SPHYNX
and "Multipoles (16-pole)" for ChaNGa — quadrupole and hexadecapole order
in the physics naming (2^p-pole).  This module provides both, plus the
octupole in between, as raw Cartesian moment tensors about each node's
center of mass:

    M^(n)_{a1..an} = sum_k m_k s_a1 ... s_an,     s = x_k - X_com

combined with the derivative tensors ``D^(n) = grad^n (1/r)`` in the
far-field expansion

    phi(d)  = -G sum_n ((-1)^n / n!) M^(n) . D^(n)(d)
    a_e(d)  =  G sum_n ((-1)^n / n!) M^(n) . D^(n+1)(d)_e

with ``d`` pointing from the node COM to the target.  ``M^(1) = 0`` by the
COM choice, so the dipole never appears.  Raw (non-detraced) moments are
used; detracing only re-shuffles terms between orders and raw tensors keep
the translation algebra simple (moments are accumulated about the box
center with prefix sums, then shifted to each COM with the binomial
transport formulas).

The ``D^(n)`` are never formed.  Each is a sum over ``k`` of
``g_{n-k} = (-1)^(n-k) (2(n-k)-1)!! / r^(2(n-k)+1)`` times every way of
filling ``n`` indices with ``k`` Kronecker deltas and ``n - 2k`` copies
of ``d``; against a symmetric moment a delta takes a trace and a ``d``
applies the moment to ``d``, which leaves (``q_n = M^(n)(d, .., d)``,
``v_n = M^(n)(d, .., d, .)``, ``t3 = M3_aab``, ``T4 = M4_aabc``):

    M2.D2   = g2 q2 + g1 tr M2
    M2.D3_e = (g3 q2 + g2 tr M2) d_e + 2 g2 v2_e
    M3.D3   = g3 q3 + 3 g2 t3.d
    M3.D4_e = (g4 q3 + 3 g3 t3.d) d_e + 3 g3 v3_e + 3 g2 t3_e
    M4.D4   = g4 q4 + 6 g3 T4(d,d) + 3 g2 tr T4
    M4.D5_e = (g5 q4 + 6 g4 T4(d,d) + 3 g3 tr T4) d_e
              + 4 g4 v4_e + 12 g3 (T4 d)_e

so an interaction costs the moment applied to ``d`` a few times — no
intermediate is larger than the moment itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..tree.octree import Octree

__all__ = [
    "MULTIPOLE_ORDERS",
    "NodeMoments",
    "compute_node_moments",
    "evaluate_multipoles",
]

#: Supported expansion orders: physics name -> highest moment rank.
MULTIPOLE_ORDERS = {"monopole": 0, "quadrupole": 2, "octupole": 3, "hexadecapole": 4}


@dataclass
class NodeMoments:
    """Per-node multipole moments about the node center of mass."""

    order: int
    mass: np.ndarray  # (m,)
    com: np.ndarray  # (m, dim)
    m2: np.ndarray | None = None  # (m, dim, dim)
    m3: np.ndarray | None = None  # (m, dim, dim, dim)
    m4: np.ndarray | None = None  # (m, dim, dim, dim, dim)


def compute_node_moments(
    tree: Octree, x: np.ndarray, m: np.ndarray, order: int = 2, ops=None
) -> NodeMoments:
    """Moments for every tree node in one prefix-sum pass per component.

    ``order`` is the highest moment rank retained (0, 2, 3 or 4 — the
    dipole vanishes about the COM so order 1 equals order 0).  With a
    compiled op table (``ops``) and 3-D input the moments come from its
    one-pass op, equal to the arrays below bit for bit; otherwise (and as
    the reference) from the numpy prefix sums.
    """
    if order not in (0, 1, 2, 3, 4):
        raise ValueError(f"order must be in 0..4, got {order}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.asarray(m, dtype=np.float64)
    dim = x.shape[1]
    if ops is not None and dim == 3:
        return NodeMoments(order, *ops.node_moments(tree, x, m, order))
    # Accumulate about the box center to curb cancellation in prefix sums.
    origin = tree.box.center
    s = x - origin

    mass = tree.node_aggregate(m)
    msum = tree.node_aggregate(m[:, None] * s)
    safe_mass = np.where(mass > 0.0, mass, 1.0)
    com_rel = msum / safe_mass[:, None]
    com = com_rel + origin
    moments = NodeMoments(order=order, mass=mass, com=com)
    if order < 2:
        return moments

    # Raw second moments about the origin, then shift to the COM:
    #   M2_com = M2 - M X (x) X
    mxx = m[:, None, None] * s[:, :, None] * s[:, None, :]
    raw2 = tree.node_aggregate(mxx.reshape(-1, dim * dim)).reshape(-1, dim, dim)
    xx = com_rel[:, :, None] * com_rel[:, None, :]
    moments.m2 = raw2 - mass[:, None, None] * xx
    if order < 3:
        return moments

    #   M3_com = M3 - sym3(X (x) M2_raw) + 2 M X^3
    mxxx = mxx[:, :, :, None] * s[:, None, None, :]
    raw3 = tree.node_aggregate(mxxx.reshape(-1, dim**3)).reshape(-1, dim, dim, dim)
    X = com_rel
    sym_xm2 = (
        X[:, :, None, None] * raw2[:, None, :, :]
        + X[:, None, :, None] * raw2[:, :, None, :]
        + X[:, None, None, :] * raw2[:, :, :, None]
    )
    xxx = xx[:, :, :, None] * X[:, None, None, :]
    moments.m3 = raw3 - sym_xm2 + 2.0 * mass[:, None, None, None] * xxx
    if order < 4:
        return moments

    #   M4_com = M4 - sym4(X (x) M3_raw) + sym6(X X (x) M2_raw) - 3 M X^4
    mxxxx = mxxx[:, :, :, :, None] * s[:, None, None, None, :]
    raw4 = tree.node_aggregate(mxxxx.reshape(-1, dim**4)).reshape(
        -1, dim, dim, dim, dim
    )
    sym_xm3 = (
        X[:, :, None, None, None] * raw3[:, None, :, :, :]
        + X[:, None, :, None, None] * raw3[:, :, None, :, :]
        + X[:, None, None, :, None] * raw3[:, :, :, None, :]
        + X[:, None, None, None, :] * raw3[:, :, :, :, None]
    )
    # Six pairings of which two indices carry X.
    def xxm2(a: int, b: int) -> np.ndarray:
        # Positions a, b carry the COM offset pair X X; the rest carry M2.
        rest = [i for i in range(4) if i not in (a, b)]
        letters = "abcd"
        x_sub = letters[a] + letters[b]
        m_sub = letters[rest[0]] + letters[rest[1]]
        return np.einsum(f"k{x_sub},k{m_sub}->kabcd", xx, raw2)

    sym_xxm2 = sum(xxm2(a, b) for a, b in combinations(range(4), 2))
    xxxx = xxx[:, :, :, :, None] * X[:, None, None, None, :]
    moments.m4 = (
        raw4 - sym_xm3 + sym_xxm2 - 3.0 * mass[:, None, None, None, None] * xxxx
    )
    return moments


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contraction over the last axis, leading axes broadcast."""
    return np.einsum("...a,...a->...", a, b)


def evaluate_multipoles(
    d: np.ndarray,
    mass: np.ndarray,
    m2: np.ndarray | None,
    m3: np.ndarray | None,
    m4: np.ndarray | None,
    order: int,
    g_const: float = 1.0,
):
    """Far-field acceleration and potential for separations ``d``.

    ``d = x_target - com_node`` has shape ``(..., k, dim)``; the moments
    carry the ``k`` source nodes on their first axis and broadcast over
    any leading target axes.  Returns ``(acc, phi)`` per interaction.

    Each ``M^(n) . D^(n)`` and ``M^(n) . D^(n+1)`` is evaluated in
    contracted form, see the module docstring; ``rp_m2p_rank`` in
    :mod:`repro.backend.csrc` is the same formula in C, on the moments
    packed as multiplicity-weighted symmetric components.
    """
    d = np.asarray(d, dtype=np.float64)
    r2 = _dot(d, d)
    if np.any(r2 <= 0.0):
        raise ValueError("multipole expansion is singular at zero separation")
    u2 = 1.0 / r2
    g0 = np.sqrt(u2)
    g1 = -g0 * u2
    phi = mass * g0
    along = mass * g1  # coefficient of d in the acceleration
    rest = 0.0  # the part of the acceleration not along d
    if order >= 2:
        if m2 is None:
            raise ValueError("order >= 2 requires m2 moments")
        g2 = -3.0 * g1 * u2
        g3 = -5.0 * g2 * u2
        v2 = np.einsum("...ab,...a->...b", m2, d)
        q2 = _dot(v2, d)
        tr2 = np.einsum("...aa->...", m2)
        phi = phi + 0.5 * (g2 * q2 + g1 * tr2)
        along = along + 0.5 * (g3 * q2 + g2 * tr2)
        rest = g2[..., None] * v2
    if order >= 3:
        if m3 is None:
            raise ValueError("order >= 3 requires m3 moments")
        g4 = -7.0 * g3 * u2
        t3 = np.einsum("...aab->...b", m3)
        v3 = np.einsum("...abc,...a,...b->...c", m3, d, d)
        q3 = _dot(v3, d)
        t3d = _dot(t3, d)
        phi = phi - (g3 * q3 + 3.0 * g2 * t3d) / 6.0
        along = along - (g4 * q3 + 3.0 * g3 * t3d) / 6.0
        rest = rest - 0.5 * (g3[..., None] * v3 + g2[..., None] * t3)
    if order >= 4:
        if m4 is None:
            raise ValueError("order >= 4 requires m4 moments")
        g5 = -9.0 * g4 * u2
        t4 = np.einsum("...aabc->...bc", m4)
        tt4 = np.einsum("...aa->...", t4)
        w4 = np.einsum("...ab,...a->...b", t4, d)
        v4 = np.einsum(
            "...abc,...a,...b->...c", np.einsum("...abce,...a->...bce", m4, d), d, d
        )
        q4 = _dot(v4, d)
        t4dd = _dot(w4, d)
        phi = phi + (g4 * q4 + 6.0 * g3 * t4dd + 3.0 * g2 * tt4) / 24.0
        along = along + (g5 * q4 + 6.0 * g4 * t4dd + 3.0 * g3 * tt4) / 24.0
        rest = rest + g4[..., None] * v4 / 6.0 + 0.5 * g3[..., None] * w4
    return g_const * (along[..., None] * d + rest), -g_const * phi
