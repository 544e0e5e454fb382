"""The pairs of one rate evaluation on the numpy path.

Every pair phase of Algorithm 1 (h iteration, IAD moments, density,
grad-h, div/curl, momentum/energy) walks the same CSR neighbour list.
A :class:`Pairs` record holds what they share: the geometry ``(i, j,
dx, r)`` of one list — or of one row range of it — and, computed on
first use, the products the phases read (gathered ``h``/``m``,
``v_ij``, ``q = r/h``, kernel values, gradients and ``dW/dh``).

A record has the lifetime Algorithm 1 gives every per-pair quantity:
``Simulation.compute_rates`` keeps its records in local variables, and
they die when the call returns or raises.  The h iteration of a Verlet-cache hit
counts off the padded list's record (``r``, which does not read ``h``);
once ``h`` is final, :func:`support_cut` masks that geometry down to the
pairs inside kernel support, and the phases read the products of the
cut's record — so nothing in a record is ever invalidated.  A phase
called without one (``pairs=None``) makes its own over whatever list it
is given, same bits; the compiled path makes none.

A whole-list record does each pair's work once: the list is symmetric,
so the j-side products of a pair (``w_j``, ``grad_j``, the IAD ``A^(j)``)
are the i-side products of its reverse pair, read through :attr:`Pairs.rev`
— bitwise what computing them gives.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .box import Box
from .neighborlist import NeighborList, reduce_pairs

__all__ = ["Pairs", "support_cut"]


class Pairs:
    """Rows ``rows`` (default: all) of ``nlist`` at the state of ``particles``.

    Every product is computed once, in the operation order the phases
    have always used, so a phase returns the same bits whether it reads
    a shared record or its own.  Results are read-only."""

    def __init__(
        self, particles, nlist: NeighborList, kernel, box: Optional[Box] = None,
        rows: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.particles = particles
        self.nlist = nlist
        self.kernel = kernel
        self.box = box
        self.dim = particles.dim
        self.lo, self.hi = rows if rows is not None else (0, nlist.n)
        self.sub = nlist.row_slice(self.lo, self.hi) if rows is not None else nlist
        self._slices: Dict[Tuple[int, int], Pairs] = {}
        self._flat_index: Dict[int, np.ndarray] = {}

    def rows(self, lo: int, hi: int) -> "Pairs":
        """The record of rows ``[lo, hi)`` of a whole-list record — one per
        range, so every phase the executor runs on that slice shares its
        geometry and products.  Geometry this record holds already is
        sliced out of it (the same per-pair arithmetic, so the same bits).
        All the rows of a whole-list record are the record itself, so its
        one slice keeps :attr:`rev`."""
        if (lo, hi) == (0, self.nlist.n) and self.sub is self.nlist:
            return self
        if (lo, hi) not in self._slices:
            part = Pairs(self.particles, self.nlist, self.kernel, self.box, (lo, hi))
            if "_geometry" in self.__dict__:
                a, b = self.nlist.offsets[lo], self.nlist.offsets[hi]
                part._geometry = (self.dx[a:b], self.r[a:b])
            self._slices[lo, hi] = part
        return self._slices[lo, hi]

    def support(self) -> "Pairs":
        """The record of the pairs of this whole-list record within
        ``kernel.support * max(h_i, h_j)`` — every pair whose kernel terms
        can be non-zero on either side, the predicate the compiled h
        iteration cuts by — rows in this list's order (``self`` if none
        is out).

        Its geometry is this record's, masked: no second pass.  A dropped
        pair has ``q >= 2`` on both sides, so every term it feeds a pair
        sum is ``±0.0``, and adding ``±0.0`` to a ``bincount`` bin (which
        starts at ``+0.0``) never changes it: every phase sums to the same
        bits over either record."""
        h = self.particles.h
        keep = self.r <= np.maximum(h[self.i], h[self.j]) * self.kernel.support
        if keep.all():
            return self
        kept = np.flatnonzero(keep)  # ascending: a row's pairs stay together
        nlist = NeighborList(np.searchsorted(kept, self.nlist.offsets), self.j.take(kept))
        cut = Pairs(self.particles, nlist, self.kernel, self.box)
        cut._geometry = (self.dx.take(kept, axis=0), self.r.take(kept))
        if self.rev is not None:
            # The predicate is symmetric (``keep[rev] == keep``): the reverse
            # of a kept pair is kept, at its rank among the kept pairs.
            rank = np.cumsum(keep) - 1
            cut.rev = rank.take(self.rev.take(kept))
        return cut

    # -- geometry --------------------------------------------------------
    @property
    def local_i(self) -> np.ndarray:  # row of every pair, counted from lo
        return self.sub.pair_i()

    @cached_property
    def i(self) -> np.ndarray:
        return self.local_i + self.lo if self.lo else self.local_i

    @property
    def j(self) -> np.ndarray:
        return self.sub.indices

    @cached_property
    def _geometry(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.sub.pair_geometry(self.particles.x, self.box, row_offset=self.lo)

    @property
    def dx(self) -> np.ndarray:  # x_i - x_j, minimum image
        return self._geometry[0]

    @property
    def r(self) -> np.ndarray:
        return self._geometry[1]

    @cached_property
    def rev(self) -> Optional[np.ndarray]:
        """Reverse-pair index of a whole-list record
        (:meth:`NeighborList.transpose`); ``None`` on a row slice, whose
        reverse pairs lie in other slices, and on a list without one."""
        return self.nlist.transpose() if self.sub is self.nlist else None

    # -- products --------------------------------------------------------
    @cached_property
    def h_i(self) -> np.ndarray:
        return self.particles.h[self.i]

    @cached_property
    def h_j(self) -> np.ndarray:
        return self.particles.h[self.j]

    @cached_property
    def m_j(self) -> np.ndarray:
        return self.particles.m[self.j]

    @cached_property
    def v_ij(self) -> np.ndarray:
        v = self.particles.v
        return np.take(v, self.i, axis=0) - np.take(v, self.j, axis=0)

    @cached_property
    def q_i(self) -> np.ndarray:
        return self.r / self.h_i

    @cached_property
    def q_j(self) -> np.ndarray:
        return self.r / self.h_j

    @cached_property
    def w_i(self) -> np.ndarray:
        """``W(r, h_i)`` (bitwise ``kernel.value(r, h[i])``)."""
        return self.kernel.value_from_q(self.q_i, self.h_i, self.dim)

    @cached_property
    def w_j(self) -> np.ndarray:
        """``W(r, h_j)``: ``w_i`` of the reverse pair when the record has
        :attr:`rev` — ``dx_ji = -dx_ij`` to the bit (subtraction and the
        half-to-even minimum image are sign-symmetric), so ``r`` and ``q``
        are the same numbers — else computed."""
        if self.rev is not None:
            return self.w_i.take(self.rev)
        return self.kernel.value_from_q(self.q_j, self.h_j, self.dim)

    @cached_property
    def dwdh_i(self) -> np.ndarray:
        """``dW/dh(r, h_i)`` (bitwise ``kernel.h_derivative(r, h[i])``)."""
        return self.kernel.h_derivative_from_q(self.q_i, self.h_i, self.dim)

    @cached_property
    def grad_i(self) -> np.ndarray:
        """``grad_i W(dx, r, h_i)`` (bitwise ``kernel.gradient(dx, r, h[i])``)."""
        return self.kernel.gradient_from_q(self.dx, self.r, self.q_i, self.h_i, self.dim)

    @cached_property
    def grad_j(self) -> np.ndarray:
        """``grad W(dx, r, h_j)``: minus ``grad_i`` of the reverse pair
        (``dx * scale`` with ``dx`` negated) when the record has :attr:`rev`."""
        if self.rev is not None:
            g = self.grad_i.take(self.rev, axis=0)
            return np.negative(g, out=g)
        return self.kernel.gradient_from_q(self.dx, self.r, self.q_j, self.h_j, self.dim)

    # -- reductions ------------------------------------------------------
    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Per-row sums of per-pair ``values`` (bitwise ``NeighborList.reduce``);
        the flattened index of a ``k``-column reduction is built once."""
        n_rows = self.hi - self.lo
        if values.ndim == 1:
            return reduce_pairs(self.local_i, n_rows, values)
        k = int(np.prod(values.shape[1:]))
        if k not in self._flat_index:
            self._flat_index[k] = (
                self.local_i[:, None] * k + np.arange(k, dtype=np.int64)
            ).ravel()
        return reduce_pairs(
            self.local_i, n_rows, values, flat_index=self._flat_index[k]
        )


def support_cut(particles, nlist: NeighborList, kernel, box=None, pairs=None):
    """``(list, record)``: the pairs of the padded ``nlist`` inside kernel
    support, which the numpy pair phases run over, and their record;
    ``pairs`` is ``nlist``'s record when the caller holds one, whose
    geometry the cut reuses.  (The compiled h iteration emits the lower
    half of the same cut itself: ``CompiledOps.adapt``.)"""
    if pairs is None or pairs.nlist is not nlist:
        pairs = Pairs(particles, nlist, kernel, box)
    pairs = pairs.support()
    return pairs.nlist, pairs
