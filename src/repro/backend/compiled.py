"""Orchestration of compiled pair-loop ops behind the phase functions.

:class:`CompiledOps` wraps the low-level implementation table
(:class:`~repro.backend.cffi_backend.CffiImpl`) with everything the
phases need but the compiled code should not care about:

* **Marshalling** — contiguity checks, the minimum-image
  ``psel``/``pdiv`` encodings of the box, per-particle kernel
  normalization arrays ``whn = sigma/h**dim`` / ``whn1 = sigma/h**(dim+1)``
  (computed with the *same numpy ufunc sequence* as the reference so the
  factors are bitwise-equal by construction).
* **Memoization** — per-pair kernel products (``W``, the gradient scale
  ``dW/dr / r``, ``dW/dh``) are cached per CSR row slice, keyed on the
  :class:`~repro.sph.pair_engine.PairContext` epoch tokens, mirroring
  the pair engine's sharing discipline: the IAD phase's ``W_i`` row pass
  is reused by the force phase within the same step and invalidated the
  moment positions or smoothing lengths move.  Without tokens (an
  ephemeral ``ctx=None`` phase call) every call recomputes — correct,
  just less shared.
* **Scratch** — pair-axis buffers are grow-only per row slice, so
  steady-state steps allocate nothing on the pair axis, matching the
  ScratchArena discipline of the numpy path.

One ``CompiledOps`` instance is shared per backend per process (epoch
tokens are process-unique, so cross-simulation sharing is safe) and by
the phase executor's threads.  Per-slice entries are keyed by
``(lo, hi)``: slices of one fan-out never share a buffer, and a running
slice holds its own reference to its cache, so the wholesale ``clear()``
at the cap costs a later recompute, never a wrong value.  Whole-list
entries (normalisations, :class:`SupportList`) are produced by
:meth:`CompiledOps.prime` on the driver thread before a fan-out; the
threads only read them.
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

#: want-bitmask per product name (matches the C ABI).
_WANT_BITS = {"w": 1, "gs": 2, "dwdh": 4}
_SIDES = {"i": 0, "j": 1}

#: Bound on live per-slice scratch caches (slice boundaries are stable
#: while a neighbour list lives, so in practice a handful are ever live).
_MAX_SLICES = 64


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


def _as_c(arr: np.ndarray, dtype) -> np.ndarray:
    """C-contiguous view of the expected dtype (no copy when already so)."""
    return np.ascontiguousarray(arr, dtype=dtype)


class _SliceCache:
    """Grow-only named pair-axis buffers + memo keys for one row slice."""

    __slots__ = ("bufs", "keys")

    def __init__(self) -> None:
        self.bufs: Dict[str, np.ndarray] = {}
        self.keys: Dict[str, tuple] = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self.bufs.get(name)
        if buf is None or buf.size < size:
            buf = np.empty(max(size, 1))
            self.bufs[name] = buf
        return buf[:size].reshape(shape)


class CompiledOps:
    """Phase-facing op table for one compiled backend."""

    def __init__(self, name: str, impl) -> None:
        self.name = name
        self.impl = impl
        self._slices: Dict[Tuple[int, int], _SliceCache] = {}
        self._factors: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._filters: Dict[tuple, SupportList] = {}

    # -- capability ----------------------------------------------------
    def supports(self, kernel) -> bool:
        try:
            kernel_spec(kernel)
        except UnsupportedKernelError:
            return False
        return True

    # -- internals -----------------------------------------------------
    def _slice(self, lo: int, hi: int) -> _SliceCache:
        sc = self._slices.get((lo, hi))
        if sc is None:
            if len(self._slices) >= _MAX_SLICES:
                self._slices.clear()
            sc = self._slices[(lo, hi)] = _SliceCache()
        return sc

    def _normalizations(
        self, kernel, h: np.ndarray, dim: int, tok_h
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-particle sigma/h**dim and sigma/h**(dim+1).

        Same ufunc sequence as ``Kernel.value_from_q`` /
        ``radial_derivative_from_q`` (power then divide), hence bitwise
        -equal factors; cached on the h epoch token when available.
        """
        key = None
        if tok_h is not None:
            key = (tok_h, kernel.cache_key(), dim, h.shape[0])
            hit = self._factors.get(key)
            if hit is not None:
                return hit
        sigma = kernel.sigma(dim)
        whn = np.power(h, dim)
        np.divide(sigma, whn, out=whn)
        whn1 = np.power(h, dim + 1)
        np.divide(sigma, whn1, out=whn1)
        if key is not None:
            if len(self._factors) >= 8:
                self._factors.clear()
            self._factors[key] = (whn, whn1)
        return whn, whn1

    @staticmethod
    def _pair_count(nlist, lo: int, hi: int) -> int:
        return int(nlist.offsets[hi] - nlist.offsets[lo])

    # -- fused kernel products -----------------------------------------
    def pair_products(
        self,
        *,
        x: np.ndarray,
        h: np.ndarray,
        nlist,
        box,
        kernel,
        dim: int,
        lo: int,
        hi: int,
        tokens: Optional[tuple],
        side: str,
        want: Tuple[str, ...],
    ) -> Dict[str, np.ndarray]:
        """Per-pair kernel products for one side, memoized on tokens.

        ``want`` names any subset of ``("w", "gs", "dwdh")``; missing
        products are computed in a single fused pass over the CSR rows.
        Returned arrays are cache-owned views — consume before the next
        call that could recompute the same slot.
        """
        kind, p1 = kernel_spec(kernel)
        sc = self._slice(lo, hi)
        n_pairs = self._pair_count(nlist, lo, hi)
        tok_geom, tok_h = (tokens[0], tokens[1]) if tokens else (None, None)
        key = None
        if tok_geom is not None and tok_h is not None:
            key = (tok_geom, tok_h, kernel.cache_key(), dim, n_pairs)

        out: Dict[str, np.ndarray] = {}
        missing = 0
        for prod in want:
            slot = f"{prod}_{side}"
            if key is not None and sc.keys.get(slot) == key:
                out[prod] = sc.bufs[slot][:n_pairs]
            else:
                missing |= _WANT_BITS[prod]

        if missing:
            whn, whn1 = self._normalizations(kernel, h, dim, tok_h)
            psel, pdiv = _pspans(box, dim)
            dummy = sc.take("dummy", (1,))
            bufs = {}
            for prod, bit in _WANT_BITS.items():
                if missing & bit:
                    bufs[prod] = sc.take(f"{prod}_{side}", (n_pairs,))
            self.impl.pair_kernel(
                _as_c(x, np.float64), _as_c(h, np.float64), whn, whn1,
                nlist.offsets, nlist.indices, lo, hi, dim, psel, pdiv,
                kind, p1, missing, _SIDES[side],
                bufs.get("w", dummy), bufs.get("gs", dummy),
                bufs.get("dwdh", dummy),
            )
            for prod, buf in bufs.items():
                sc.keys[f"{prod}_{side}"] = key
                out[prod] = buf
        return out

    # -- row reductions ------------------------------------------------
    def rowsum(
        self, nlist, lo: int, hi: int, wgt: np.ndarray, vals: np.ndarray
    ) -> np.ndarray:
        out = np.empty(hi - lo)
        self.impl.rowsum(
            nlist.offsets, nlist.indices, lo, hi,
            _as_c(wgt, np.float64), _as_c(vals, np.float64), out,
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
        psel, pdiv = _pspans(box, dim)
        tau = np.empty((hi - lo, dim, dim))
        self.impl.iad_tau(
            _as_c(x, np.float64), nlist.offsets, nlist.indices, lo, hi,
            dim, psel, pdiv, _as_c(m, np.float64), _as_c(rho, np.float64),
            _as_c(w, np.float64), tau,
        )
        return tau

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
        psel, pdiv = _pspans(box, dim)
        divsum = np.empty(hi - lo)
        curlsum = np.empty((hi - lo, 3))
        self.impl.div_curl(
            _as_c(x, np.float64), _as_c(v, np.float64),
            nlist.offsets, nlist.indices, lo, hi, dim, psel, pdiv,
            _as_c(m, np.float64), _as_c(gs, np.float64), divsum, curlsum,
        )
        return divsum, curlsum

    def forces(
        self,
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
        wj,
        gsi,
        gsj,
        use_iad,
        c_matrices,
        balsara_f,
        alpha,
        beta,
        eta2,
        support,
        kernel=None,
        tokens=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        psel, pdiv = _pspans(box, dim)
        rows = hi - lo
        a = np.empty((rows, dim))
        s1 = np.empty(rows)
        s2 = np.empty(rows)
        # Unused optional inputs still need a valid pointer to pass.
        dummy = np.empty(1)
        dummy3 = np.empty((1, 1, 1))
        use_balsara = balsara_f is not None
        # When the caller leaves the neighbour-side product (wj / gsj)
        # out and hands the kernel over instead, it is evaluated inline
        # in the fused loop — one whole pair pass saved, bitwise-same
        # values (identical shape/normalization arithmetic).
        inline_j = 0
        kind = 0
        p1 = 0.0
        whn = whn1 = dummy
        missing_j = wj is None if use_iad else gsj is None
        if kernel is not None and missing_j:
            kind, p1 = kernel_spec(kernel)
            tok_h = tokens[1] if tokens else None
            whn, whn1 = self._normalizations(kernel, h, dim, tok_h)
            inline_j = 1
        max_mu = self.impl.forces(
            _as_c(x, np.float64), _as_c(v, np.float64),
            _as_c(h, np.float64), _as_c(m, np.float64),
            _as_c(rho, np.float64), _as_c(p_over, np.float64),
            _as_c(cs, np.float64), nlist.offsets, nlist.indices, lo, hi,
            dim, psel, pdiv,
            _as_c(wi, np.float64) if wi is not None else dummy,
            _as_c(wj, np.float64) if wj is not None else dummy,
            _as_c(gsi, np.float64) if gsi is not None else dummy,
            _as_c(gsj, np.float64) if gsj is not None else dummy,
            int(use_iad),
            _as_c(c_matrices, np.float64) if use_iad else dummy3,
            _as_c(balsara_f, np.float64) if use_balsara else dummy,
            int(use_balsara), float(alpha), float(beta), float(eta2),
            float(support), inline_j, kind, float(p1), whn, whn1,
            a, s1, s2,
        )
        return a, s1, s2, float(max_mu)

    # -- pair geometry reuse -------------------------------------------
    def pair_radii(
        self, x: np.ndarray, nlist, box, tokens: Optional[tuple] = None
    ) -> np.ndarray:
        """Per-pair distances over the full list, memoized on the
        geometry token.

        One separation pass per step serves every
        :meth:`counts_from_radii` sweep of the h iteration *and* the
        :meth:`support_list` build; the values are bitwise what the
        fused loops compute inline (same ``rp_sep`` arithmetic).
        """
        dim = x.shape[1]
        n = int(nlist.n)
        n_pairs = int(nlist.offsets[n])
        sc = self._slice(0, n)
        tok_geom = tokens[0] if tokens else None
        key = (tok_geom, n_pairs) if tok_geom is not None else None
        if key is not None and sc.keys.get("radii") == key:
            return sc.bufs["radii"][:n_pairs]
        psel, pdiv = _pspans(box, dim)
        r = sc.take("radii", (n_pairs,))
        self.impl.radii(
            _as_c(x, np.float64), nlist.offsets, nlist.indices, 0, n, dim,
            psel, pdiv, r,
        )
        sc.keys["radii"] = key  # None: the buffer no longer holds a memo
        return r

    def counts_from_radii(
        self, r: np.ndarray, h: np.ndarray, nlist, factor: float
    ) -> np.ndarray:
        """Neighbour counts within ``factor*h[i]`` from precomputed radii
        — bitwise the numpy ``r <= factor*h[i]``, one compare per pair."""
        counts = np.empty(nlist.n, dtype=np.int64)
        self.impl.counts_r(
            _as_c(r, np.float64), _as_c(h, np.float64), nlist.offsets,
            int(nlist.n), float(factor), counts,
        )
        return counts

    def support_list(
        self, x: np.ndarray, h: np.ndarray, nlist, box, kernel,
        tokens: Optional[tuple],
    ):
        """Resolve the pair list the fused loops should run over.

        With valid geometry/h tokens, returns a memoized
        :class:`SupportList` keeping only pairs within
        ``kernel.support * max(h_i, h_j)`` — every per-pair op then
        skips the Verlet-skin padding.  Alignment discipline: per-pair
        buffers produced against a given list are only meaningful to
        ops called with the *same* list; phases resolve it once per
        call, and the token-keyed memo makes every phase of a step
        agree.  Without tokens the original ``nlist`` is returned
        unchanged (filtering would cost more than one unshared pass
        saves).
        """
        if not tokens or tokens[0] is None or tokens[1] is None:
            return nlist
        n = int(nlist.n)
        n_pairs = int(nlist.offsets[n])
        support = float(kernel.support)
        key = (tokens[0], tokens[1], support, n, n_pairs)
        hit = self._filters.get(key)
        if hit is not None:
            return hit
        r = self.pair_radii(x, nlist, box, tokens)
        kept = np.empty(n, dtype=np.int64)
        h64 = _as_c(h, np.float64)
        r64 = _as_c(r, np.float64)
        self.impl.filter_count(
            nlist.offsets, nlist.indices, r64, h64, n, support, kept,
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept, out=offsets[1:])
        indices = np.empty(int(offsets[n]), dtype=np.int64)
        self.impl.filter_fill(
            nlist.offsets, nlist.indices, r64, h64, n, support, offsets,
            indices,
        )
        sub = SupportList(offsets=offsets, indices=indices, n=n)
        if len(self._filters) >= 4:
            self._filters.clear()
        self._filters[key] = sub
        return sub

    def prime(
        self, x: np.ndarray, h: np.ndarray, nlist, box, kernel,
        tokens: Optional[tuple],
    ) -> None:
        """Produce the whole-list memos a row-sliced phase reads — the
        :meth:`support_list` and the per-particle normalisations — on
        the calling thread, so that slices running on several threads
        find them instead of each deriving (and inserting) its own."""
        self.support_list(x, h, nlist, box, kernel, tokens)
        self._normalizations(
            kernel, h, x.shape[1], tokens[1] if tokens else None
        )

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
        psel, pdiv = _pspans(tree.box, dim)
        order = _as_c(tree.order, np.int64)
        xs = np.ascontiguousarray(xw[order].T)
        rs = np.ascontiguousarray(radii[order], dtype=np.float64)
        n_nodes = tree.n_nodes
        lo = np.empty((n_nodes, dim))
        hi = np.empty((n_nodes, dim))
        rmax = np.empty(n_nodes)
        nodes = (
            n_nodes, _as_c(tree.child_start, np.int64),
            _as_c(tree.child_count, np.int64),
            _as_c(tree.pstart, np.int64), _as_c(tree.pend, np.int64),
        )
        self.impl.node_bounds(xs, rs, n, dim, *nodes, lo, hi, rmax)
        args = (
            xs, rs, n, dim, int(symmetric), psel, pdiv, *nodes, order,
            lo, hi, rmax, int(include_self),
        )
        cursor = np.zeros(n, dtype=np.int64)
        self.impl.walk(*args, None, cursor, None)  # counts
        np.cumsum(cursor, out=offsets[1:])
        indices = np.empty(int(offsets[n]), dtype=np.int64)
        cursor[:] = offsets[:-1]
        self.impl.walk(*args, offsets, cursor, indices)  # rows
        if not np.array_equal(cursor, offsets[1:]):
            raise RuntimeError("tree walk: the fill pass disagrees with the count")
        if sort_rows:
            self.impl.sort_rows(offsets, n, indices)
        return offsets, indices

    def pairs_within(
        self, nlist, xw: np.ndarray, radii: np.ndarray, box
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of the pairs of ``nlist`` a symmetric
        search at ``radii`` keeps (:meth:`NeighborList.within`), rows in
        canonical ascending order whatever order ``nlist`` holds them in."""
        n, dim = xw.shape
        psel, pdiv = _pspans(box, dim)
        offsets = np.zeros(n + 1, dtype=np.int64)
        # Room for every pair; only the kept ones are ever written, and
        # the unused tail goes back before anyone holds a reference.
        indices = np.empty(nlist.n_pairs, dtype=np.int64)
        self.impl.pairs_within(
            _as_c(xw, np.float64), _as_c(radii, np.float64),
            nlist.offsets, nlist.indices, n, dim, psel, pdiv, offsets, indices,
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
        self.impl.gravity(
            _as_c(x, np.float64), _as_c(m, np.float64),
            _as_c(leaves, np.int64),
            _as_c(tree.center, np.float64), _as_c(tree.half, np.float64),
            _as_c(tree.child_start, np.int64),
            _as_c(tree.child_count, np.int64),
            _as_c(tree.pstart, np.int64), _as_c(tree.pend, np.int64),
            _as_c(tree.order, np.int64),
            _as_c(moments.mass, np.float64), _as_c(moments.com, np.float64),
            *(None if mk is None else _as_c(mk, np.float64) for mk in held),
            int(order), float(theta), float(g_const), float(eps2),
            acc, phi, counts,
        )
        return acc, phi, int(counts[0]), int(counts[1])

    def tau_inverse(
        self, tau: np.ndarray, dim: int, rcond: float
    ) -> np.ndarray:
        """Regularize (``max(trace*rcond, 1e-300)`` on the diagonal)
        and invert the IAD moment matrices in one compiled pass."""
        rows = tau.shape[0]
        out = np.empty((rows, dim, dim))
        self.impl.tau_inv(
            _as_c(tau, np.float64), rows, dim, float(rcond), out
        )
        return out

    def pair_gradients(
        self,
        x: np.ndarray,
        nlist,
        box,
        per_pair: np.ndarray,
        mode: int,
        c_matrices: Optional[np.ndarray],
        side: str,
        dim: int,
        lo: int,
        hi: int,
    ) -> np.ndarray:
        psel, pdiv = _pspans(box, dim)
        n_pairs = self._pair_count(nlist, lo, hi)
        out = np.empty((n_pairs, dim))
        dummy3 = np.empty((1, 1, 1))
        self.impl.pair_gradients(
            _as_c(x, np.float64), nlist.offsets, nlist.indices, lo, hi,
            dim, psel, pdiv, _as_c(per_pair, np.float64), mode,
            _as_c(c_matrices, np.float64) if c_matrices is not None
            else dummy3,
            _SIDES[side], out,
        )
        return out
