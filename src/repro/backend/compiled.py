"""The compiled op table behind the phase functions.

:class:`CompiledOps` is a *stateless* marshalling table over the shared
library built by :mod:`repro.backend.cffi_backend`: each method encodes
the box as the minimum-image ``psel``/``pdiv`` arrays, allocates its
row-sized outputs and the per-call block of row buffers, and calls one
``lib.rp_*`` entry point.  It holds the library handle and nothing else,
so one instance serves every simulation and thread of the process.

The neighbour list is the only per-pair thing that crosses the
boundary, in either direction: ``int64`` row offsets and one ``int32``
column.  Marshalling never copies it — a column of another dtype or
layout is a ``TypeError``; a caller holding a numpy-built ``int64`` list
converts it once with :meth:`NeighborList.as_int32` — and never copies
an array an op writes.  Separations, kernel values and gradients are
recomputed by the row kernels where they are used (see
:mod:`repro.backend.csrc`), so there is nothing to keep between calls
and nothing to invalidate.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tree.neighborlist import NeighborList
from .base import UnsupportedKernelError, kernel_spec
from .csrc import SCRATCH_ROWS

__all__ = ["CompiledOps"]

_CTYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.int32): "int32_t[]",
    np.dtype(np.int8): "int8_t[]",
}


def _pspans(box, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Min-image encoding of the box: psel = span|0, pdiv = span|inf.

    ``t - psel*rint(t/pdiv)`` is the wrap on a periodic axis; an open
    axis (``psel = 0``) is never wrapped.
    """
    psel = np.zeros(dim)
    pdiv = np.full(dim, np.inf)
    if box is not None:
        per = box.periodic
        span = box.span
        psel[per] = span[per]
        pdiv[per] = span[per]
    return psel, pdiv


def _check_particles(tree, x: np.ndarray, m: np.ndarray) -> None:
    """The gravity ops read ``x``/``m`` through ``tree.order``: they must
    be the tree's 3-D particles (a mismatch would be read out of bounds)."""
    n = tree.n_particles
    if x.shape != (n, 3) or m.shape != (n,):
        raise ValueError(
            f"a {n}-particle 3-D tree needs x of shape {(n, 3)} and m of "
            f"shape {(n,)}, got {x.shape} and {m.shape}"
        )


class CompiledOps:
    """Phase-facing op table for one compiled backend."""

    def __init__(self, name: str, ffi, lib) -> None:
        self.name = name
        self._ffi = ffi
        self.lib = lib

    # -- marshalling ---------------------------------------------------
    def _d(self, arr: Optional[np.ndarray]):
        """``double *`` onto an array the op only reads: a C-contiguous
        float64 view of ``arr`` (no copy when already so; the cdata keeps
        a copy alive for the call).  ``None`` is ``NULL``."""
        if arr is None:
            return self._ffi.NULL
        return self._ffi.from_buffer(
            "double[]", np.ascontiguousarray(arr, dtype=np.float64)
        )

    def _i(self, arr: np.ndarray):
        """``int64_t *`` onto an array the op only reads (as :meth:`_d`)."""
        return self._ffi.from_buffer(
            "int64_t[]", np.ascontiguousarray(arr, dtype=np.int64)
        )

    def _out(self, arr: np.ndarray):
        """Pointer onto ``arr`` itself, for an array the op writes: a
        copy made here would receive the results and be dropped."""
        ctype = _CTYPES.get(arr.dtype)
        if ctype is None or not arr.flags.c_contiguous:
            raise TypeError(
                "an op writes only a C-contiguous float64/int64/int32 array "
                f"in place, got {arr.dtype.name}, strides {arr.strides}"
            )
        return self._ffi.from_buffer(ctype, arr)

    def _csr(self, nlist):
        """``(offsets, indices)`` of a list, zero-copy: the column of
        every list an op takes is int32 already (a widening or a copy
        here would be paid on every call)."""
        if nlist.indices.dtype != np.int32:
            raise TypeError(
                f"compiled ops take int32 neighbour columns, got "
                f"{nlist.indices.dtype.name}: convert the list once with "
                "NeighborList.as_int32()"
            )
        return self._i(nlist.offsets), self._out(nlist.indices)

    def _box(self, box, dim: int):
        psel, pdiv = _pspans(box, dim)
        return self._d(psel), self._d(pdiv)

    def _tree(self, tree):
        """``n_nodes`` and the node-range arrays every tree op reads."""
        return (
            tree.n_nodes, self._i(tree.child_start), self._i(tree.child_count),
            self._i(tree.pstart), self._i(tree.pend),
        )

    def _scratch(self, op: str, nlist):
        """The zeroed block of row buffers ``op`` works in, each as long
        as the longest row of ``nlist`` (buffers of axes the run does not
        have are never written and stay zero)."""
        cap = max(nlist.longest_row, 1)
        return self._out(np.zeros(SCRATCH_ROWS[op] * cap)), cap

    def _kernel(self, kernel, dim: int):
        kind, p1 = kernel_spec(kernel)
        return kind, float(p1), float(kernel.sigma(dim))

    # -- capability ----------------------------------------------------
    def supports(self, kernel) -> bool:
        try:
            kernel_spec(kernel)
        except UnsupportedKernelError:
            return False
        return True

    # -- the h iteration -----------------------------------------------
    def adapt(
        self, x, h, budget, nlist, box, table, config, state, sweeps,
        support=None,
    ) -> Optional[NeighborList]:
        """The h iteration of every row whose ``state`` (int8) is 0, each
        to its own stop (``config``: a ``SmoothingConfig``), writing ``h``,
        ``state`` and ``sweeps`` (int32) in place; a row left running
        out-grew its ``budget``.  ``table[c]`` is the update factor for
        count ``c``.  With ``support``, returns the lower half (``j <= i``,
        rows ascending, self pair last) of the pairs of the symmetric
        ``nlist`` within ``support * max(h_i, h_j)`` at the final ``h`` —
        every pair the pair ops run over — off the sweeps' geometry; over
        finished rows the call only emits.  Else ``None``.
        """
        n, dim = x.shape
        null = self._ffi.NULL
        cut = (null, null, 0)
        if support is not None:
            offsets = np.zeros(n + 1, dtype=np.int64)
            # Room for the lower half of a symmetric list with its self
            # pairs.  Only the kept pairs are written, so the tail is never
            # touched; it is not handed back either (a realloc would shrink
            # the block and glibc would map, and fault in, a fresh one for
            # the next evaluation's cut).
            indices = np.empty((nlist.n_pairs - n) // 2 + n, dtype=np.int32)
            cut = (self._out(offsets), self._out(indices), indices.size)
        status = self.lib.rp_adapt(
            self._d(x), self._out(h), self._d(budget), *self._csr(nlist), n,
            dim, *self._box(box, dim), self._d(table), int(config.n_target),
            float(config.tolerance), config.tolerance / dim,
            float(config.h_min), float(config.h_max),
            int(config.max_iterations), float(support or 0.0),
            *self._scratch("rp_adapt", nlist), self._out(state),
            self._out(sweeps), *cut,
        )
        if status:
            raise ValueError("the support cut needs a symmetric list")
        if support is None:
            return None
        return NeighborList(offsets, indices[: offsets[n]])

    # -- pair phases ---------------------------------------------------
    # Each takes a half list (``j <= i``, as ``adapt`` emits) or a full
    # symmetric one with ascending rows, of which it reads each row's
    # prefix ``j <= i``; rows ``[lo, hi)`` of a slice read the halo rows
    # after ``hi`` whose lower halves reach back into them.
    def _pair_rows(self, nlist, lo: int, hi: int):
        return lo, hi, nlist.halo_end(hi)

    def density_sums(
        self, x, h, wgt, nlist, box, kernel, lo: int, hi: int,
        dwdh: bool = False,
    ) -> np.ndarray:
        """Row sums of ``wgt[j] * W(r_ij, h_i)`` over rows ``[lo, hi)``
        (``dwdh``: of ``wgt[j] * dW/dh(r_ij, h_i)``)."""
        return self._density(x, h, wgt, None, None, nlist, box, kernel, lo, hi,
                             dwdh=dwdh)[0]

    def density_iad(
        self, x, h, wgt, m, rho, nlist, box, kernel, lo: int, hi: int,
        rcond: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`density_sums` of ``wgt`` and the regularised, inverted
        IAD moment matrices (weights ``m_j / rho_j``) of rows ``[lo, hi)``,
        shape ``(hi - lo, dim, dim)``, off one pass of kernel values."""
        return self._density(x, h, wgt, m, rho, nlist, box, kernel, lo, hi,
                             rcond=rcond)

    def _density(self, x, h, wgt, m, rho, nlist, box, kernel, lo, hi,
                 dwdh=False, rcond=0.0):
        dim = x.shape[1]
        out = np.empty(hi - lo)
        iad = m is not None
        cmat = np.empty((hi - lo, dim, dim)) if iad else None
        # The six moments per row the matrices are summed in.
        tau = self._out(np.empty((hi - lo) * 6)) if iad else self._ffi.NULL
        self.lib.rp_density(
            self._d(x), self._d(h), self._d(wgt), *self._csr(nlist),
            *self._pair_rows(nlist, lo, hi), dim, *self._box(box, dim),
            *self._kernel(kernel, dim), int(dwdh), self._d(m), self._d(rho),
            float(rcond), *self._scratch("rp_density", nlist), self._out(out),
            tau, self._out(cmat) if iad else self._ffi.NULL,
        )
        return out, cmat

    def div_curl_sums(
        self, x, v, h, m, nlist, box, kernel, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sum m_j v_ij . grad_i W, sum m_j v_ij x grad_i W)`` of rows
        ``[lo, hi)``; the cross products always have three components."""
        dim = x.shape[1]
        divsum = np.empty(hi - lo)
        curlsum = np.empty((hi - lo, 3))
        self.lib.rp_div_curl(
            self._d(x), self._d(v), self._d(h), self._d(m),
            *self._csr(nlist), *self._pair_rows(nlist, lo, hi), dim,
            *self._box(box, dim), *self._kernel(kernel, dim),
            *self._scratch("rp_div_curl", nlist),
            self._out(divsum), self._out(curlsum),
        )
        return divsum, curlsum

    def forces(
        self, *, x, v, h, m, rho, p_over, cs, nlist, box, kernel, lo, hi,
        c_matrices, balsara_f, alpha, beta, eta2,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The momentum/energy row kernel over rows ``[lo, hi)``:
        ``(a, s1, s2, max_mu)``.  IAD gradients when ``c_matrices`` is
        given, standard kernel gradients otherwise; the Balsara limiter
        when ``balsara_f`` is."""
        dim = x.shape[1]
        rows = hi - lo
        a = np.empty((rows, dim))
        s1 = np.empty(rows)
        s2 = np.empty(rows)
        max_mu = self.lib.rp_forces(
            self._d(x), self._d(v), self._d(h), self._d(m), self._d(rho),
            self._d(p_over), self._d(cs), *self._csr(nlist),
            *self._pair_rows(nlist, lo, hi), dim, *self._box(box, dim),
            *self._kernel(kernel, dim),
            self._d(c_matrices), self._d(balsara_f), float(alpha),
            float(beta), float(eta2), float(kernel.support),
            *self._scratch("rp_forces", nlist),
            self._out(a), self._out(s1), self._out(s2),
        )
        return a, s1, s2, float(max_mu)

    # -- neighbour search ----------------------------------------------
    def walk_neighbors(
        self, tree, xw: np.ndarray, radii: np.ndarray, symmetric: bool,
        include_self: bool, sort_rows: bool, rows: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of the leaf-grouped tree walk.

        ``xw`` are the box-wrapped positions of ``tree``'s particles.
        They and the radii are gathered into Morton order once, the
        per-node tight boxes and largest radii are taken from those
        copies (``rp_node_bounds``), and one traversal over them writes
        the rows, in particle order, into a block the C side grows as it
        goes; the array handed back is that block (freed with it).  With
        ``rows`` (a boolean mask) only those rows are searched and the
        others come back empty.  Rows come back in traversal order unless
        ``sort_rows`` asks for the canonical ascending order.
        """
        n, dim = xw.shape
        if n >= 2**31 or tree.n_nodes >= 2**31:
            raise OverflowError(f"{n} particles do not fit an int32 column")
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return offsets, np.empty(0, dtype=np.int32)
        xs = self._d(xw[tree.order].T)
        rs = self._d(radii[tree.order])
        n_nodes = tree.n_nodes
        lo = self._out(np.empty((n_nodes, dim)))
        hi = self._out(np.empty((n_nodes, dim)))
        rmax = self._out(np.empty(n_nodes))
        nodes = self._tree(tree)
        self.lib.rp_node_bounds(xs, rs, n, dim, *nodes, lo, hi, rmax)
        want = self._ffi.NULL
        if rows is not None:
            want = self._out(np.ascontiguousarray(rows, dtype=np.int8))
        block = self._ffi.new("rp_rows *")
        try:
            status = self.lib.rp_walk(
                xs, rs, n, dim, int(symmetric), *self._box(tree.box, dim),
                *nodes, self._i(tree.order), lo, hi, rmax, int(include_self),
                want, self._out(offsets), block,
            )
            if status:
                raise MemoryError("tree walk: the rows could not grow")
            indices = self._adopt(block, int(offsets[n]))
        except BaseException:
            self.lib.rp_free(block.buf)
            raise
        if sort_rows:
            self.lib.rp_sort_rows(self._i(offsets), n, self._out(indices))
        return offsets, indices

    def _adopt(self, block, length: int) -> np.ndarray:
        """The first ``length`` entries of a block the C side allocated, as
        an int32 array that frees the block when it is collected."""
        if length == 0:
            self.lib.rp_free(block.buf)
            return np.empty(0, dtype=np.int32)
        owned = self._ffi.gc(block.buf, self.lib.rp_free)
        block.buf = self._ffi.NULL
        return np.frombuffer(self._ffi.buffer(owned, 4 * length), dtype=np.int32)

    def pairs_within(
        self, nlist, xw: np.ndarray, radii: np.ndarray, box
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of the pairs of ``nlist`` a symmetric
        search at ``radii`` keeps (:meth:`NeighborList.within`), rows in
        canonical ascending order whatever order ``nlist`` holds them in.
        The kept pairs must be symmetric (``ValueError`` otherwise)."""
        n, dim = xw.shape
        offsets = np.zeros(n + 1, dtype=np.int64)
        # Room for every pair; only the kept ones are ever written, and
        # the unused tail goes back before anyone holds a reference.
        indices = np.empty(nlist.n_pairs, dtype=np.int32)
        status = self.lib.rp_pairs_within(
            self._d(xw), self._d(radii), *self._csr(nlist), n, dim,
            *self._box(box, dim), *self._scratch("rp_pairs_within", nlist),
            self._out(offsets), self._out(indices),
        )
        if status < 0:
            raise MemoryError("pairs_within: no room for the pair tags")
        if status:
            raise ValueError("pairs_within needs a symmetric list")
        indices.resize(int(offsets[n]), refcheck=False)
        return offsets, indices

    def merge_rows(
        self, nlist, fresh, redo: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of :meth:`NeighborList.merged`: ``nlist``
        with the rows ``redo`` taken from ``fresh`` and, in every other
        row, its pairs with those rows taken from ``fresh`` as well."""
        n = nlist.n
        offsets = np.empty(n + 1, dtype=np.int64)
        # Room for every row: nlist's, fresh's, and each pair of fresh
        # once more, reversed.
        indices = np.empty(nlist.n_pairs + 2 * fresh.n_pairs, dtype=np.int32)
        status = self.lib.rp_merge_rows(
            *self._csr(nlist), *self._csr(fresh),
            self._out(np.ascontiguousarray(redo, dtype=np.int8)), n,
            self._out(offsets), self._out(indices),
        )
        if status:
            raise MemoryError("merge_rows: no room for the row cursors")
        indices.resize(int(offsets[n]), refcheck=False)
        return offsets, indices

    # -- gravity ---------------------------------------------------------
    def node_moments(
        self, tree, x: np.ndarray, m: np.ndarray, order: int
    ) -> Tuple[np.ndarray, ...]:
        """``(mass, com, m2, m3, m4)`` of every node of ``tree`` (3-D),
        the arrays of :func:`~repro.gravity.multipole.compute_node_moments`
        bit for bit; moments above rank ``order`` are ``None``.  The one
        per-call scratch is a prefix row per leaf boundary."""
        _check_particles(tree, x, m)
        n_nodes = tree.n_nodes
        n_leaves = int(np.count_nonzero(tree.child_count == 0))
        mass = np.empty(n_nodes)
        com = np.empty((n_nodes, 3))
        held = [
            np.empty((n_nodes,) + (3,) * r) if order >= r else None
            for r in (2, 3, 4)
        ]
        self.lib.rp_node_moments(
            self._d(x), self._d(m), self._d(tree.box.center),
            *self._tree(tree), self._i(tree.order), int(order),
            # Prefix rows of the widest products (rank 4: 121 values).
            self._out(np.empty((n_leaves + 1) * 121)),
            self._out(np.empty(n_leaves + 1, dtype=np.int64)),
            self._out(mass), self._out(com),
            *(self._ffi.NULL if mk is None else self._out(mk) for mk in held),
        )
        return (mass, com, *held)

    def gravity(
        self, tree, x: np.ndarray, m: np.ndarray, moments, leaves: np.ndarray,
        order: int, theta: float, g_const: float, eps2: float, out=None,
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """``(acc, phi, n_p2p, n_m2p)`` of the Barnes-Hut walk of the
        target ``leaves`` over ``tree``'s arrays and ``moments`` (3-D).

        The rows of the particles in ``leaves`` are written into ``out =
        (acc, phi)`` when given, else into fresh arrays whose other rows
        stay zero.
        """
        _check_particles(tree, x, m)
        held = (moments.m2, moments.m3, moments.m4)
        if any(mk is None for mk in held[: max(order - 1, 0)]):
            raise ValueError(f"order {order} needs moments up to rank {order}")
        if leaves.size and not 0 <= leaves.min() <= leaves.max() < tree.n_nodes:
            raise ValueError("target leaves outside the tree")
        n = x.shape[0]
        acc, phi = (np.zeros((n, 3)), np.zeros(n)) if out is None else out
        counts = np.zeros(2, dtype=np.int64)
        n_nodes, child_start, child_count, pstart, pend = self._tree(tree)
        status = self.lib.rp_gravity(
            self._d(x), self._d(m), self._i(leaves), leaves.shape[0], n_nodes,
            self._d(tree.center), self._d(tree.half), child_start, child_count,
            pstart, pend, self._i(tree.order),
            self._d(moments.mass), self._d(moments.com),
            *(self._d(mk) for mk in held),
            int(order), float(theta), float(g_const), float(eps2),
            self._out(acc), self._out(phi), self._out(counts),
        )
        if status:
            raise MemoryError("gravity: the interaction lists could not grow")
        return acc, phi, int(counts[0]), int(counts[1])
