"""Per-pair state of one rate evaluation on the numpy path.

Every pair-loop phase of Algorithm 1 (h adaptation, IAD moments, density,
grad-h, div/curl, momentum/energy) walks the *same* CSR neighbour list.
A :class:`PairContext` is the one place the per-pair intermediates of
the numpy phases live: the pair geometry ``(i, j, dx, r)`` and a by-name
memo of derived products (``q = r/h``, kernel values and gradients,
``v_ij``, gathered masses), all stored in a :class:`ScratchArena` of
grow-only buffers reused across steps.  The compiled path has no
per-pair state to put here: its row kernels take the neighbour list and
recompute the rest (see :mod:`repro.backend.csrc`).

Lifetime
--------

Algorithm 1 gives every per-pair quantity the lifetime of one loop
iteration, and so does this module: sharing happens only inside an
*open evaluation* (:meth:`PairContext.evaluation`, opened by
``Simulation.compute_rates`` for the duration of the call, together with
the per-slice contexts of the phase executor).  There are exactly two
invalidation points:

* **open / close** — a context enters and leaves an evaluation empty, so
  nothing computed from one set of positions or velocities can be read
  under another;
* **h written** — the h iteration reports its write
  (:meth:`PairContext.h_written`) and every product that read ``h`` is
  dropped; the geometry stays.

Inside an evaluation the geometry is reused iff a phase binds the same
neighbour-list *object* and row range: the Verlet cache hands every
phase of an evaluation one list object, a rebuild hands out a new one,
and the context keeps a strong reference so an id is never recycled.
Outside an evaluation a context shares nothing across binds — what a
``ctx=None`` phase call gets from its ephemeral context.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..tree.box import Box
from ..tree.neighborlist import NeighborList, reduce_pairs

__all__ = [
    "PairEngineStats",
    "ScratchArena",
    "PairContext",
]

#: Products that read ``h`` (dropped by ``h_written``).
_H_PRODUCTS = (
    "h_i", "h_j", "q_i", "q_j", "w_i", "w_j", "dwdh_i", "grad_i", "grad_j",
)


@dataclass
class PairEngineStats:
    """Counters of one context's cache behaviour (reported by profiling).

    ``geometry_*`` count full ``(i, j, dx, r)`` evaluations;
    ``product_*`` count derived per-pair arrays (kernel values,
    gradients, ``v_ij``, ...); ``bytes_*`` count scratch-arena traffic —
    ``bytes_allocated`` grows only while buffers are first sized (or
    regrown), ``bytes_reused`` is per-pair storage served without
    touching the allocator.
    """

    geometry_computes: int = 0
    geometry_reuses: int = 0
    product_computes: int = 0
    product_reuses: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    _FIELDS = (
        "geometry_computes",
        "geometry_reuses",
        "product_computes",
        "product_reuses",
        "bytes_allocated",
        "bytes_reused",
    )

    def snapshot(self) -> Tuple[int, ...]:
        """Current counter values (for later :meth:`delta`)."""
        return tuple(getattr(self, f) for f in self._FIELDS)

    def delta(self, since: Tuple[int, ...]) -> Dict[str, int]:
        """Counter increments since a :meth:`snapshot` (picklable)."""
        return {
            f: getattr(self, f) - prev for f, prev in zip(self._FIELDS, since)
        }

    def merge(self, delta: Optional[Dict[str, int]]) -> None:
        """Fold a :meth:`delta` / :meth:`as_dict` mapping in."""
        if not delta:
            return
        for f in self._FIELDS:
            setattr(self, f, getattr(self, f) + int(delta.get(f, 0)))

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self._FIELDS}


class ScratchArena:
    """Named, grow-only, shape-stable scratch buffers.

    ``take(name, shape, dtype)`` returns a view of a persistent flat
    buffer, (re)allocating only when the requested size first exceeds the
    buffer's capacity — after warm-up every request is served without
    touching the allocator.  Contents are *not* cleared: callers must
    fully overwrite what they take (all engine writes go through
    ``out=`` ufuncs or ``np.take(..., out=...)``).
    """

    def __init__(self, stats: Optional[PairEngineStats] = None) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.stats = stats if stats is not None else PairEngineStats()

    def take(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        size = int(np.prod(shape, dtype=np.int64))
        dt = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dt or buf.size < size:
            buf = np.empty(max(size, 1), dtype=dt)
            self._buffers[name] = buf
            self.stats.bytes_allocated += buf.nbytes
        else:
            self.stats.bytes_reused += size * dt.itemsize
        return buf[:size].reshape(shape)

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def capacity_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


class PairContext:
    """Pair geometry + derived-product memo of one stream of phases.

    One context serves the driver's whole list or one row slice of the
    phase executor.  Open an :meth:`evaluation`, then :meth:`bind` at the
    top of every phase; the product accessors (:meth:`h_i`, :meth:`w_i`,
    :meth:`grad_i`, :meth:`vel_ij`, ...) compute on first use and replay
    afterwards.  All results are read-only borrows: they live in the
    context's arena and are overwritten by the next recompute.
    """

    def __init__(self) -> None:
        self.stats = PairEngineStats()
        self.arena = ScratchArena(self.stats)
        self._open = False
        self._slices: Sequence["PairContext"] = ()
        self._nlist_ref: Optional[NeighborList] = None
        self._products: Dict[str, Tuple[tuple, np.ndarray]] = {}
        # Bound geometry (valid after the first bind):
        self.lo = 0
        self.hi = 0
        self.n_rows = 0
        self.n_pairs = 0
        self.local_i: Optional[np.ndarray] = None
        self.i: Optional[np.ndarray] = None
        self.j: Optional[np.ndarray] = None
        self.dx: Optional[np.ndarray] = None
        self.r: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Lifetime and binding
    # ------------------------------------------------------------------
    @contextmanager
    def evaluation(
        self, slices: Sequence["PairContext"] = ()
    ) -> Iterator["PairContext"]:
        """Open one rate evaluation on this context and its ``slices``.

        Every member starts and ends empty; in between, binds of the
        same list object reuse the geometry and products replay.  Closed
        on return or raise.
        """
        members = (self, *slices)
        for ctx in members:
            ctx.invalidate()
            ctx._open = True
        self._slices = tuple(slices)
        try:
            yield self
        finally:
            self._slices = ()
            for ctx in members:
                ctx._open = False
                ctx.invalidate()

    @property
    def is_open(self) -> bool:
        """Inside an :meth:`evaluation` (the only time anything is shared)."""
        return self._open

    def invalidate(self) -> None:
        """Drop the geometry and every derived product."""
        self._nlist_ref = None
        self._products.clear()

    def h_written(self) -> None:
        """``h`` was rewritten in place: drop what was computed from it
        (here and on the slices open with this context); positions did
        not move, so the geometry stays."""
        for ctx in (self, *self._slices):
            for name in _H_PRODUCTS:
                ctx._products.pop(name, None)

    def bind(
        self,
        x: np.ndarray,
        nlist: NeighborList,
        box: Optional[Box] = None,
        rows: Optional[Tuple[int, int]] = None,
    ) -> "PairContext":
        """Make ``(i, j, dx, r)`` for ``(x, nlist[, rows])`` current.

        Inside an open evaluation the bound geometry is reused when the
        neighbour-list identity and the row range match; otherwise it is
        recomputed into the arena and the product memo cleared.
        """
        lo, hi = rows if rows is not None else (0, nlist.n)
        if self._nlist_ref is nlist and (lo, hi) == (self.lo, self.hi):
            self.stats.geometry_reuses += 1
            return self

        sub = nlist.row_slice(lo, hi) if rows is not None else nlist
        take = self.arena.take
        local_i = sub.pair_i()
        n_pairs = local_i.size
        dim = x.shape[1]
        if lo:
            i = take("geom_i", (n_pairs,), np.int64)
            np.add(local_i, lo, out=i)
        else:
            i = local_i
        j = sub.indices
        dx = take("geom_dx", (n_pairs, dim))
        gather = take("geom_gather_vec", (n_pairs, dim))
        np.take(x, i, axis=0, out=dx)
        np.take(x, j, axis=0, out=gather)
        np.subtract(dx, gather, out=dx)
        if box is not None:
            box.min_image(dx, out=dx)
        r = take("geom_r", (n_pairs,))
        np.einsum("ij,ij->i", dx, dx, out=r)
        np.sqrt(r, out=r)

        self.lo, self.hi = lo, hi
        self.n_rows = hi - lo
        self.n_pairs = n_pairs
        self.local_i, self.i, self.j = local_i, i, j
        self.dx, self.r = dx, r
        # Remembered only inside an evaluation: outside one, positions
        # may move between two binds of the same list object.
        self._nlist_ref = nlist if self._open else None
        self._products.clear()
        self.stats.geometry_computes += 1
        return self

    # ------------------------------------------------------------------
    # Product memo
    # ------------------------------------------------------------------
    def cached(
        self, name: str, key: tuple, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """The product ``name`` of the bound geometry, computed once per
        ``key`` and replayed until the next rebind (or ``h`` write)."""
        hit = self._products.get(name)
        if hit is not None and hit[0] == key:
            self.stats.product_reuses += 1
            return hit[1]
        arr = compute()
        self._products[name] = (key, arr)
        self.stats.product_computes += 1
        return arr

    def _gather(self, name: str, src: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = self.arena.take(name, idx.shape + src.shape[1:], src.dtype)
        np.take(src, idx, axis=0, out=out)
        return out

    def gather_scratch(
        self, name: str, src: np.ndarray, side: str
    ) -> np.ndarray:
        """Uncached gather of ``src`` along side ``"i"``/``"j"`` into scratch.

        For fields that change inside an evaluation (``rho``, ``p``,
        ``cs``, ...): storage is reused but values are always
        re-gathered.
        """
        idx = self.i if side == "i" else self.j
        return self._gather(name, src, idx)

    # -- memoised per-pair products ------------------------------------
    def h_i(self, h: np.ndarray) -> np.ndarray:
        return self.cached("h_i", (), lambda: self._gather("h_i", h, self.i))

    def h_j(self, h: np.ndarray) -> np.ndarray:
        return self.cached("h_j", (), lambda: self._gather("h_j", h, self.j))

    def m_j(self, m: np.ndarray) -> np.ndarray:
        # Masses are immutable for a particle set; the memo is cleared on
        # every geometry rebind, which covers particle-set changes too.
        return self.cached("m_j", (), lambda: self._gather("m_j", m, self.j))

    def vel_ij(self, v: np.ndarray) -> np.ndarray:
        def compute() -> np.ndarray:
            out = self._gather("v_ij", v, self.i)
            vj = self._gather("geom_gather_vec", v, self.j)
            np.subtract(out, vj, out=out)
            return out

        return self.cached("v_ij", (), compute)

    def q_i(self, h: np.ndarray) -> np.ndarray:
        def compute() -> np.ndarray:
            out = self.arena.take("q_i", (self.n_pairs,))
            np.divide(self.r, self.h_i(h), out=out)
            return out

        return self.cached("q_i", (), compute)

    def q_j(self, h: np.ndarray) -> np.ndarray:
        def compute() -> np.ndarray:
            out = self.arena.take("q_j", (self.n_pairs,))
            np.divide(self.r, self.h_j(h), out=out)
            return out

        return self.cached("q_j", (), compute)

    def _kernel_product(
        self, name: str, kernel, h: np.ndarray, dim: int, compute
    ) -> np.ndarray:
        return self.cached(name, (kernel.cache_key(), dim), compute)

    def w_i(self, kernel, h: np.ndarray, dim: int) -> np.ndarray:
        """Kernel values ``W(r, h_i)`` (bitwise ``kernel.value(r, h[i])``)."""
        return self._kernel_product(
            "w_i",
            kernel,
            h,
            dim,
            lambda: kernel.value_from_q(
                self.q_i(h), self.h_i(h), dim, out=self.arena.take("w_i", (self.n_pairs,))
            ),
        )

    def w_j(self, kernel, h: np.ndarray, dim: int) -> np.ndarray:
        return self._kernel_product(
            "w_j",
            kernel,
            h,
            dim,
            lambda: kernel.value_from_q(
                self.q_j(h), self.h_j(h), dim, out=self.arena.take("w_j", (self.n_pairs,))
            ),
        )

    def dwdh_i(self, kernel, h: np.ndarray, dim: int) -> np.ndarray:
        """``dW/dh(r, h_i)`` (bitwise ``kernel.h_derivative(r, h[i])``)."""
        return self._kernel_product(
            "dwdh_i",
            kernel,
            h,
            dim,
            lambda: kernel.h_derivative_from_q(
                self.q_i(h),
                self.h_i(h),
                dim,
                out=self.arena.take("dwdh_i", (self.n_pairs,)),
            ),
        )

    def _grad(self, name: str, kernel, q, hg, dim: int) -> np.ndarray:
        out = self.arena.take(name, (self.n_pairs, dim))
        scratch = self.arena.take("grad_scratch", (self.n_pairs,))
        return kernel.gradient_from_q(
            self.dx, self.r, q, hg, dim, out=out, scratch=scratch
        )

    def grad_i(self, kernel, h: np.ndarray, dim: int) -> np.ndarray:
        """``grad_i W(dx, r, h_i)`` (bitwise ``kernel.gradient(dx, r, h[i])``)."""
        return self._kernel_product(
            "grad_i",
            kernel,
            h,
            dim,
            lambda: self._grad("grad_i", kernel, self.q_i(h), self.h_i(h), dim),
        )

    def grad_j(self, kernel, h: np.ndarray, dim: int) -> np.ndarray:
        return self._kernel_product(
            "grad_j",
            kernel,
            h,
            dim,
            lambda: self._grad("grad_j", kernel, self.q_j(h), self.h_j(h), dim),
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _reduce_index(self, k: int) -> np.ndarray:
        """Flattened bincount index for ``k``-column reductions (memoized)."""

        def compute() -> np.ndarray:
            idx = self.arena.take(f"reduce_index_{k}", (self.n_pairs, k), np.int64)
            np.multiply(self.local_i[:, None], k, out=idx)
            np.add(idx, np.arange(k, dtype=np.int64), out=idx)
            return idx

        return self.cached(f"reduce_index_{k}", (), compute)

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Per-row sums of per-pair ``values`` (bitwise ``NeighborList.reduce``)."""
        values = np.asarray(values)
        if values.ndim == 1:
            return reduce_pairs(self.local_i, self.n_rows, values)
        k = int(np.prod(values.shape[1:]))
        return reduce_pairs(
            self.local_i,
            self.n_rows,
            values,
            flat_index=self._reduce_index(k).reshape(-1),
        )

    def reduce_into(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`reduce` copied into a preallocated ``out``."""
        np.copyto(out, self.reduce(values))
        return out
