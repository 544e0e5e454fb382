"""The compiled op table behind the phase functions.

:class:`CompiledOps` is a *stateless* marshalling table over the shared
library built by :mod:`repro.backend.cffi_backend`: each method checks
contiguity, encodes the box as the minimum-image ``psel``/``pdiv``
arrays, allocates its row-sized outputs and calls one ``lib.rp_*`` entry
point.  It holds the library handle and nothing else, so one instance
serves every simulation and thread of the process.

Everything per-pair that outlives a call lives in the caller's
:class:`~repro.sph.pair_engine.PairContext`, which the three ops that
share work take as their first argument: :meth:`support_list` (the
support-filtered list, cut from the context's radii),
:meth:`normalizations` (per-particle ``whn = sigma/h**dim`` /
``whn1 = sigma/h**(dim+1)``, computed with the *same numpy ufunc
sequence* as the reference so the factors are bitwise-equal by
construction) and :meth:`pair_products` (``W``, the gradient scale
``dW/dr / r`` and ``dW/dh`` per CSR row slice, in the context's
grow-only arena).  Inside an open evaluation the IAD phase's ``W_i`` row
pass is the one the density and force phases read; with an unmanaged
context every call recomputes — correct, just less shared.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .base import UnsupportedKernelError, kernel_spec

__all__ = ["CompiledOps"]


class SupportList(NamedTuple):
    """Support-filtered sub-CSR of a (padded) neighbour list.

    Keeps exactly the pairs within ``support * max(h_i, h_j)`` — the
    pairs whose kernel terms can be non-zero on either side.  Dropped
    pairs contribute an exact ``0.0`` to every pair sum, and the fill
    preserves ascending pair order, so running the fused loops over the
    sub-list reproduces the full-list reductions while skipping the
    Verlet-skin padding (~2x fewer pairs at the default skin).
    """

    offsets: np.ndarray
    indices: np.ndarray
    n: int

#: want-bitmask per product name, in the order of the C output arguments.
_WANT_BITS = {"w": 1, "gs": 2, "dwdh": 4}


def _pspans(box, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Min-image encoding of the box: psel = span|0, pdiv = span|inf.

    ``t - psel*rint(t/pdiv)`` is the wrap on a periodic axis and ``t`` on
    an open one, where no ``t`` ever exceeds ``pdiv/2`` — the test the
    compiled loops skip the wrap on.
    """
    psel = np.zeros(dim)
    pdiv = np.full(dim, np.inf)
    if box is not None:
        per = box.periodic
        span = box.span
        psel[per] = span[per]
        pdiv[per] = span[per]
    return psel, pdiv


class CompiledOps:
    """Phase-facing op table for one compiled backend."""

    def __init__(self, name: str, ffi, lib) -> None:
        self.name = name
        self._ffi = ffi
        self.lib = lib

    # -- marshalling ---------------------------------------------------
    def _d(self, arr: Optional[np.ndarray]):
        """``double *`` onto a C-contiguous float64 view of ``arr`` (no
        copy when already so; the cdata keeps a copy alive for the call)."""
        if arr is None:
            return self._ffi.NULL
        return self._ffi.from_buffer(
            "double[]", np.ascontiguousarray(arr, dtype=np.float64)
        )

    def _i(self, arr: np.ndarray):
        return self._ffi.from_buffer(
            "int64_t[]", np.ascontiguousarray(arr, dtype=np.int64)
        )

    def _csr(self, nlist):
        return self._i(nlist.offsets), self._i(nlist.indices)

    def _box(self, box, dim: int):
        psel, pdiv = _pspans(box, dim)
        return self._d(psel), self._d(pdiv)

    # -- capability ----------------------------------------------------
    def supports(self, kernel) -> bool:
        try:
            kernel_spec(kernel)
        except UnsupportedKernelError:
            return False
        return True

    # -- what a pair context keeps between calls -----------------------
    def normalizations(
        self, ctx, kernel, h: np.ndarray, dim: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-particle sigma/h**dim and sigma/h**(dim+1).

        Same ufunc sequence as ``Kernel.value_from_q`` /
        ``radial_derivative_from_q`` (power then divide), hence bitwise
        -equal factors.  A whole-list entry of ``ctx``.
        """
        key = (kernel.cache_key(), dim, h.shape[0])
        hit = ctx.held("whn", None, key, whole=True)
        if hit is not None:
            return hit
        sigma = kernel.sigma(dim)
        whn = np.power(h, dim)
        np.divide(sigma, whn, out=whn)
        whn1 = np.power(h, dim + 1)
        np.divide(sigma, whn1, out=whn1)
        return ctx.hold("whn", None, key, (whn, whn1), whole=True)

    def support_list(self, ctx, x: np.ndarray, h: np.ndarray, nlist, box, kernel):
        """Resolve the pair list the fused loops should run over.

        Inside an open evaluation, the :class:`SupportList` keeping only
        pairs within ``kernel.support * max(h_i, h_j)`` — every per-pair
        op then skips the Verlet-skin padding — cut once per list from
        the context's radii (a whole-list entry of ``ctx``).  Alignment
        discipline: per-pair buffers produced against a given list are
        only meaningful to ops called with the *same* list; phases
        resolve it once per call and the context makes every phase of an
        evaluation agree.  With an unmanaged context the original
        ``nlist`` is returned unchanged (filtering would cost more than
        one unshared pass saves).
        """
        if not ctx.is_open:
            return nlist
        n = int(nlist.n)
        support = float(kernel.support)
        sub = ctx.held("support", nlist, (support,), whole=True)
        if sub is not None:
            return sub
        offs, idx = self._csr(nlist)
        r, h64 = self._d(ctx.radii(self, x, nlist, box)), self._d(h)
        kept = np.empty(n, dtype=np.int64)
        self.lib.rp_filter_count(offs, idx, r, h64, n, support, self._i(kept))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept, out=offsets[1:])
        indices = np.empty(int(offsets[n]), dtype=np.int64)
        self.lib.rp_filter_fill(
            offs, idx, r, h64, n, support, self._i(offsets), self._i(indices)
        )
        sub = SupportList(offsets=offsets, indices=indices, n=n)
        return ctx.hold("support", nlist, (support,), sub, whole=True)

    def pair_products(
        self,
        ctx,
        *,
        x: np.ndarray,
        h: np.ndarray,
        nlist,
        box,
        kernel,
        dim: int,
        lo: int,
        hi: int,
        want: Tuple[str, ...],
    ) -> Dict[str, np.ndarray]:
        """Per-pair kernel products of rows ``[lo, hi)``, evaluated with
        ``h[i]`` and kept in ``ctx``.

        ``want`` names any subset of ``("w", "gs", "dwdh")``; the ones
        ``ctx`` does not hold for this list and row range are computed
        in a single fused pass over the CSR rows.  Returned arrays are
        context-owned views — consume before the next call that could
        recompute the same slot.
        """
        kind, p1 = kernel_spec(kernel)
        key = (lo, hi, kernel.cache_key(), dim)
        out = {prod: ctx.held(f"{prod}_rows", nlist, key) for prod in want}
        missing = [prod for prod in want if out[prod] is None]
        if missing:
            whn, whn1 = self.normalizations(ctx, kernel, h, dim)
            n_pairs = int(nlist.offsets[hi] - nlist.offsets[lo])
            bufs = {
                prod: ctx.arena.take(f"{prod}_rows", (n_pairs,))
                for prod in missing
            }
            unused = self._d(np.empty(1))
            self.lib.rp_pair_kernel(
                self._d(x), self._d(h), self._d(whn), self._d(whn1),
                *self._csr(nlist), lo, hi, dim, *self._box(box, dim),
                kind, p1, sum(_WANT_BITS[prod] for prod in missing), 0,
                *(
                    self._d(bufs[prod]) if prod in bufs else unused
                    for prod in _WANT_BITS
                ),
            )
            for prod, buf in bufs.items():
                out[prod] = ctx.hold(f"{prod}_rows", nlist, key, buf)
        return out

    # -- row reductions ------------------------------------------------
    def rowsum(
        self, nlist, lo: int, hi: int, wgt: np.ndarray, vals: np.ndarray
    ) -> np.ndarray:
        out = np.empty(hi - lo)
        self.lib.rp_rowsum(
            *self._csr(nlist), lo, hi, self._d(wgt), self._d(vals),
            self._d(out),
        )
        return out

    def iad_tau(
        self,
        x: np.ndarray,
        nlist,
        box,
        m: np.ndarray,
        rho: np.ndarray,
        w: np.ndarray,
        dim: int,
        lo: int,
        hi: int,
    ) -> np.ndarray:
        tau = np.empty((hi - lo, dim, dim))
        self.lib.rp_iad_tau(
            self._d(x), *self._csr(nlist), lo, hi, dim,
            *self._box(box, dim), self._d(m), self._d(rho), self._d(w),
            self._d(tau),
        )
        return tau

    def tau_inverse(
        self, tau: np.ndarray, dim: int, rcond: float
    ) -> np.ndarray:
        """Regularize (``max(trace*rcond, 1e-300)`` on the diagonal)
        and invert the IAD moment matrices in one compiled pass."""
        rows = tau.shape[0]
        out = np.empty((rows, dim, dim))
        self.lib.rp_tau_inv(self._d(tau), rows, dim, float(rcond), self._d(out))
        return out

    def div_curl_sums(
        self,
        x: np.ndarray,
        v: np.ndarray,
        nlist,
        box,
        m: np.ndarray,
        gs: np.ndarray,
        dim: int,
        lo: int,
        hi: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        divsum = np.empty(hi - lo)
        curlsum = np.empty((hi - lo, 3))
        self.lib.rp_div_curl(
            self._d(x), self._d(v), *self._csr(nlist), lo, hi, dim,
            *self._box(box, dim), self._d(m), self._d(gs),
            self._d(divsum), self._d(curlsum),
        )
        return divsum, curlsum

    def forces(
        self,
        ctx,
        *,
        x,
        v,
        h,
        m,
        rho,
        p_over,
        cs,
        nlist,
        box,
        dim,
        lo,
        hi,
        wi,
        gsi,
        use_iad,
        c_matrices,
        balsara_f,
        alpha,
        beta,
        eta2,
        kernel,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The fused momentum/energy loop over rows ``[lo, hi)``.

        Only the query-side product is handed in — ``wi`` and
        ``c_matrices`` when ``use_iad``, ``gsi`` otherwise; the
        neighbour-side factor is evaluated inline from ``kernel`` and
        the context's normalisations (``inline_j`` = 1) — one whole pair
        pass saved, bitwise-same values (identical shape/normalization
        arithmetic).
        """
        rows = hi - lo
        a = np.empty((rows, dim))
        s1 = np.empty(rows)
        s2 = np.empty(rows)
        # Unused optional inputs still need a valid pointer to pass.
        unused = self._d(np.empty(1))
        kind, p1 = kernel_spec(kernel)
        whn, whn1 = self.normalizations(ctx, kernel, h, dim)
        use_balsara = balsara_f is not None
        max_mu = self.lib.rp_forces(
            self._d(x), self._d(v), self._d(h), self._d(m), self._d(rho),
            self._d(p_over), self._d(cs), *self._csr(nlist), lo, hi, dim,
            *self._box(box, dim),
            self._d(wi) if use_iad else unused, unused,
            unused if use_iad else self._d(gsi), unused,
            int(use_iad), self._d(c_matrices) if use_iad else unused,
            self._d(balsara_f) if use_balsara else unused,
            int(use_balsara), float(alpha), float(beta), float(eta2),
            float(kernel.support), 1, kind, float(p1),
            self._d(whn), self._d(whn1),
            self._d(a), self._d(s1), self._d(s2),
        )
        return a, s1, s2, float(max_mu)

    # -- pair geometry --------------------------------------------------
    def pair_radii(
        self, x: np.ndarray, nlist, box, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-pair distances over the full list (into ``out`` when
        given) — bitwise what the fused loops compute inline (same
        ``rp_sep`` arithmetic)."""
        dim = x.shape[1]
        n = int(nlist.n)
        if out is None:
            out = np.empty(int(nlist.offsets[n]))
        self.lib.rp_radii(
            self._d(x), *self._csr(nlist), 0, n, dim, *self._box(box, dim),
            self._d(out),
        )
        return out

    def counts_from_radii(
        self, r: np.ndarray, h: np.ndarray, nlist, factor: float
    ) -> np.ndarray:
        """Neighbour counts within ``factor*h[i]`` from precomputed radii
        — bitwise the numpy ``r <= factor*h[i]``, one compare per pair."""
        counts = np.empty(nlist.n, dtype=np.int64)
        self.lib.rp_counts_r(
            self._d(r), self._d(h), self._i(nlist.offsets), int(nlist.n),
            float(factor), self._i(counts),
        )
        return counts

    # -- neighbour search ----------------------------------------------
    def walk_neighbors(
        self, tree, xw: np.ndarray, radii: np.ndarray, symmetric: bool,
        include_self: bool, sort_rows: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of the leaf-grouped tree walk.

        ``xw`` are the box-wrapped positions of ``tree``'s particles.
        They and the radii are gathered into Morton order once, the
        per-node tight boxes and largest radii are taken from those
        copies (``rp_node_bounds``), and the traversal runs twice over
        them — counts, then rows.  Rows come back in traversal order
        unless ``sort_rows`` asks for the canonical ascending order.
        """
        n, dim = xw.shape
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return offsets, np.empty(0, dtype=np.int64)
        xs = self._d(xw[tree.order].T)
        rs = self._d(radii[tree.order])
        n_nodes = tree.n_nodes
        lo = self._d(np.empty((n_nodes, dim)))
        hi = self._d(np.empty((n_nodes, dim)))
        rmax = self._d(np.empty(n_nodes))
        nodes = (
            n_nodes, self._i(tree.child_start), self._i(tree.child_count),
            self._i(tree.pstart), self._i(tree.pend),
        )
        self.lib.rp_node_bounds(xs, rs, n, dim, *nodes, lo, hi, rmax)
        args = (
            xs, rs, n, dim, int(symmetric), *self._box(tree.box, dim),
            *nodes, self._i(tree.order), lo, hi, rmax, int(include_self),
        )
        cursor = np.zeros(n, dtype=np.int64)
        null = self._ffi.NULL
        self.lib.rp_walk(*args, null, self._i(cursor), null)  # counts
        np.cumsum(cursor, out=offsets[1:])
        indices = np.empty(int(offsets[n]), dtype=np.int64)
        cursor[:] = offsets[:-1]
        self.lib.rp_walk(  # rows
            *args, self._i(offsets), self._i(cursor), self._i(indices)
        )
        if not np.array_equal(cursor, offsets[1:]):
            raise RuntimeError("tree walk: the fill pass disagrees with the count")
        if sort_rows:
            self.lib.rp_sort_rows(self._i(offsets), n, self._i(indices))
        return offsets, indices

    def pairs_within(
        self, nlist, xw: np.ndarray, radii: np.ndarray, box
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of the pairs of ``nlist`` a symmetric
        search at ``radii`` keeps (:meth:`NeighborList.within`), rows in
        canonical ascending order whatever order ``nlist`` holds them in."""
        n, dim = xw.shape
        offsets = np.zeros(n + 1, dtype=np.int64)
        # Room for every pair; only the kept ones are ever written, and
        # the unused tail goes back before anyone holds a reference.
        indices = np.empty(nlist.n_pairs, dtype=np.int64)
        self.lib.rp_pairs_within(
            self._d(xw), self._d(radii), *self._csr(nlist), n, dim,
            *self._box(box, dim), self._i(offsets), self._i(indices),
        )
        indices.resize(int(offsets[n]), refcheck=False)
        return offsets, indices

    # -- gravity ---------------------------------------------------------
    def gravity(
        self, tree, x: np.ndarray, m: np.ndarray, moments, leaves: np.ndarray,
        order: int, theta: float, g_const: float, eps2: float,
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """``(acc, phi, n_p2p, n_m2p)`` of the Barnes-Hut walk of the
        target ``leaves`` over ``tree``'s arrays and ``moments`` (3-D).

        Rows of particles outside ``leaves`` stay zero.
        """
        held = (moments.m2, moments.m3, moments.m4)
        if any(mk is None for mk in held[: max(order - 1, 0)]):
            raise ValueError(f"order {order} needs moments up to rank {order}")
        if leaves.size and not 0 <= leaves.min() <= leaves.max() < tree.n_nodes:
            raise ValueError("target leaves outside the tree")
        n = x.shape[0]
        acc = np.zeros((n, 3))
        phi = np.zeros(n)
        counts = np.zeros(2, dtype=np.int64)
        self.lib.rp_gravity(
            self._d(x), self._d(m), self._i(leaves), leaves.shape[0],
            self._d(tree.center), self._d(tree.half),
            self._i(tree.child_start), self._i(tree.child_count),
            self._i(tree.pstart), self._i(tree.pend), self._i(tree.order),
            self._d(moments.mass), self._d(moments.com),
            *(self._d(mk) for mk in held),
            int(order), float(theta), float(g_const), float(eps2),
            self._d(acc), self._d(phi), self._i(counts),
        )
        return acc, phi, int(counts[0]), int(counts[1])
