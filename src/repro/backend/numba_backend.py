"""Numba-JIT backend: nopython mirrors of the C ops in ``csrc``.

Same algorithms, same operation order, same shared polynomial constants
(:mod:`repro.backend.poly`) as the cffi backend — the two compiled
implementations differ only in toolchain, so they agree with each other
to the rounding of identical arithmetic and with the numpy reference
within the documented tolerance (``fastmath`` is off everywhere).

numba is imported lazily inside :func:`load_numba_impl`; module import
must stay numba-free so the tier-1 environment never touches it.  The
plain-Python function bodies below are the JIT sources — they are
rebound to their compiled dispatchers in dependency order on first load
(callees first, so callers capture the compiled globals).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BackendUnavailableError
from .poly import COS_COEFFS, PI_LO, SIN_COEFFS

__all__ = ["load_numba_impl", "NumbaImpl"]

_PI = np.pi
_PI_2 = 0.5 * np.pi

(_S1, _S2, _S3, _S4, _S5, _S6, _S7, _S8, _S9, _S10) = SIN_COEFFS
(_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10) = COS_COEFFS
_PI_LO = PI_LO


def _sinpoly(z):
    z2 = z * z
    p = _S10
    p = _S9 + z2 * p
    p = _S8 + z2 * p
    p = _S7 + z2 * p
    p = _S6 + z2 * p
    p = _S5 + z2 * p
    p = _S4 + z2 * p
    p = _S3 + z2 * p
    p = _S2 + z2 * p
    p = _S1 + z2 * p
    return z + (z * z2) * p


def _cospoly(z):
    z2 = z * z
    p = _C10
    p = _C9 + z2 * p
    p = _C8 + z2 * p
    p = _C7 + z2 * p
    p = _C6 + z2 * p
    p = _C5 + z2 * p
    p = _C4 + z2 * p
    p = _C3 + z2 * p
    p = _C2 + z2 * p
    p = _C1 + z2 * p
    return 1.0 + z2 * p


def _sincos(x):
    if x <= _PI_2:
        return _sinpoly(x), _cospoly(x)
    z = (_PI - x) + _PI_LO
    return _sinpoly(z), -_cospoly(z)


def _powi(a, n):
    r = 1.0
    while n > 0:
        if n & 1:
            r *= a
        a *= a
        n >>= 1
    return r


def _pow_pos(a, e):
    ri = np.rint(e)
    if e == ri and 0.0 <= ri <= 32.0:
        return _powi(a, int(ri))
    return a ** e


def _sep(x, ii, jj, dim, psel, pdiv, dx):
    r2 = 0.0
    for d in range(dim):
        t = x[ii, d] - x[jj, d]
        t -= psel[d] * np.rint(t / pdiv[d])
        dx[d] = t
        r2 += t * t
    return np.sqrt(r2)


def _shape(kind, p1, q, need_f, need_fp):
    f = 0.0
    fp = 0.0
    if kind == 0:  # M4 cubic spline
        if q < 1.0:
            if need_f:
                f = (1.0 - (1.5 * q) * q) + (((0.75 * q) * q) * q)
            if need_fp:
                fp = (-3.0 * q) + ((2.25 * q) * q)
        elif q < 2.0:
            t = 2.0 - q
            if need_f:
                f = 0.25 * ((t * t) * t)
            if need_fp:
                fp = -0.75 * (t * t)
    elif kind == 1:  # Wendland C2
        l = 0.5 * q
        p = 1.0 - l
        pm = p if p > 0.0 else 0.0
        p2 = pm * pm
        if p1 == 1.0:
            if need_f:
                f = (p2 * pm) * (1.0 + 3.0 * l)
            if need_fp:
                fp = 0.5 * ((-12.0 * l) * p2)
        else:
            if need_f:
                f = (p2 * p2) * (1.0 + 4.0 * l)
            if need_fp:
                fp = 0.5 * ((-20.0 * l) * (p2 * pm))
    elif kind == 2:  # Wendland C4
        l = 0.5 * q
        p = 1.0 - l
        pm = p if p > 0.0 else 0.0
        p2 = pm * pm
        p4 = p2 * p2
        if p1 == 1.0:
            if need_f:
                f = (p4 * pm) * ((1.0 + 5.0 * l) + (8.0 * l) * l)
            if need_fp:
                fp = 0.5 * ((-p4) * ((14.0 * l) + (56.0 * l) * l))
        else:
            if need_f:
                f = (p4 * p2) * ((1.0 + 6.0 * l) + ((35.0 / 3.0) * l) * l)
            if need_fp:
                fp = 0.5 * ((-(p4 * pm))
                            * (((56.0 / 3.0) * l)
                               + ((280.0 / 3.0) * l) * l))
    elif kind == 3:  # Wendland C6
        l = 0.5 * q
        p = 1.0 - l
        pm = p if p > 0.0 else 0.0
        p2 = pm * pm
        p4 = p2 * p2
        if p1 == 1.0:
            if need_f:
                f = ((p4 * p2) * pm) * (((1.0 + 7.0 * l) + (19.0 * l) * l)
                                        + 21.0 * ((l * l) * l))
            if need_fp:
                fp = 0.5 * ((((-6.0) * (p4 * p2)) * l)
                            * (((35.0 * l) * l + (18.0 * l)) + 3.0))
        else:
            if need_f:
                f = (p4 * p4) * (((1.0 + 8.0 * l) + (25.0 * l) * l)
                                 + 32.0 * ((l * l) * l))
            if need_fp:
                fp = 0.5 * (((((-22.0) * ((p4 * p2) * pm)) * l))
                            * (((16.0 * l) * l + (7.0 * l)) + 1.0))
    else:  # sinc^n
        if q <= 0.0:
            if q == 0.0:
                f = 1.0
            return f, fp
        if q >= 2.0:
            return f, fp
        xv = _PI * (0.5 * q)
        sx, cx = _sincos(xv)
        s = sx / xv
        if need_f:
            f = _pow_pos(abs(s), p1)
        if need_fp:
            dsdq = (0.5 * _PI) * ((cx - s) / xv)
            sgn = 1.0 if s > 0.0 else (-1.0 if s < 0.0 else 0.0)
            fp = ((p1 * _pow_pos(abs(s), p1 - 1.0)) * sgn) * dsdq
    return f, fp


def _pair_kernel(x, h, whn, whn1, offsets, indices, lo, hi, dim, psel,
                 pdiv, kind, p1, want, side, w, gs, dwdh):
    k0 = offsets[lo]
    need_f = bool(want & 1) or bool(want & 4)
    need_fp = bool(want & 2) or bool(want & 4)
    dx = np.empty(3)
    for i in range(lo, hi):
        hi_ = h[i]
        wni = whn[i]
        wn1i = whn1[i]
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            r = _sep(x, i, j, dim, psel, pdiv, dx)
            if side == 0:
                hs = hi_
                wn = wni
                wn1 = wn1i
            else:
                hs = h[j]
                wn = whn[j]
                wn1 = whn1[j]
            q = r / hs
            f, fp = _shape(kind, p1, q, need_f, need_fp)
            o = k - k0
            if want & 1:
                w[o] = wn * f
            if want & 2:
                dwdr = wn1 * fp
                gs[o] = dwdr / r if r > 0.0 else 0.0
            if want & 4:
                dwdh[o] = (-wn1) * (float(dim) * f + q * fp)


def _rowsum(offsets, indices, lo, hi, wgt, vals, out):
    k0 = offsets[lo]
    for i in range(lo, hi):
        acc = 0.0
        for k in range(offsets[i], offsets[i + 1]):
            acc += wgt[indices[k]] * vals[k - k0]
        out[i - lo] = acc


def _iad_tau(x, offsets, indices, lo, hi, dim, psel, pdiv, m, rho, w, tau):
    k0 = offsets[lo]
    dx = np.empty(3)
    acc = np.empty((3, 3))
    for i in range(lo, hi):
        for a in range(dim):
            for b in range(dim):
                acc[a, b] = 0.0
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            _sep(x, i, j, dim, psel, pdiv, dx)
            wgt = (m[j] / rho[j]) * w[k - k0]
            for a in range(dim):
                for b in range(dim):
                    acc[a, b] += (dx[a] * dx[b]) * wgt
        for a in range(dim):
            for b in range(dim):
                tau[i - lo, a, b] = acc[a, b]


def _div_curl(x, v, offsets, indices, lo, hi, dim, psel, pdiv, m, gs,
              divsum, curlsum):
    k0 = offsets[lo]
    dx = np.empty(3)
    vij = np.empty(3)
    grad = np.empty(3)
    for i in range(lo, hi):
        dacc = 0.0
        c0 = 0.0
        c1 = 0.0
        c2 = 0.0
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            _sep(x, i, j, dim, psel, pdiv, dx)
            g = gs[k - k0]
            mj = m[j]
            vg = 0.0
            for d in range(dim):
                vij[d] = v[i, d] - v[j, d]
                grad[d] = dx[d] * g
                vg += vij[d] * grad[d]
            dacc += mj * vg
            if dim == 3:
                t = vij[1] * grad[2] - vij[2] * grad[1]
                c0 += mj * t
                t = vij[2] * grad[0] - vij[0] * grad[2]
                c1 += mj * t
                t = vij[0] * grad[1] - vij[1] * grad[0]
                c2 += mj * t
            elif dim == 2:
                t = vij[0] * grad[1] - vij[1] * grad[0]
                c0 += mj * t
        divsum[i - lo] = dacc
        curlsum[i - lo, 0] = c0
        curlsum[i - lo, 1] = c1
        curlsum[i - lo, 2] = c2


def _forces(x, v, h, m, rho, p_over, cs, offsets, indices, lo, hi, dim,
            psel, pdiv, wi, wj, gsi, gsj, use_iad, cmat, bals, use_balsara,
            alpha, beta, eta2, support, inline_j, kind, p1, whn, whn1,
            out_a, out_s1, out_s2):
    k0 = offsets[lo]
    max_mu = 0.0
    dx = np.empty(3)
    vij = np.empty(3)
    gi = np.empty(3)
    gj = np.empty(3)
    acc = np.empty(3)
    for i in range(lo, hi):
        for d in range(dim):
            acc[d] = 0.0
        s1 = 0.0
        s2 = 0.0
        hii = h[i]
        poi = p_over[i]
        csi = cs[i]
        rhoi = rho[i]
        bi = bals[i] if use_balsara else 0.0
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            o = k - k0
            r = _sep(x, i, j, dim, psel, pdiv, dx)
            hj = h[j]
            for d in range(dim):
                vij[d] = v[i, d] - v[j, d]
            if use_iad:
                wio = wi[o]
                if inline_j:
                    f, fp = _shape(kind, p1, r / hj, True, False)
                    wjo = whn[j] * f
                else:
                    wjo = wj[o]
                for a in range(dim):
                    ai = 0.0
                    aj = 0.0
                    for b in range(dim):
                        tj = -dx[b]
                        ai += cmat[i, a, b] * tj
                        aj += cmat[j, a, b] * tj
                    gi[a] = ai * wio
                    gj[a] = aj * wjo
            else:
                gio = gsi[o]
                if inline_j:
                    f, fp = _shape(kind, p1, r / hj, False, True)
                    dwdr = whn1[j] * fp
                    gjo = dwdr / r if r > 0.0 else 0.0
                else:
                    gjo = gsj[o]
                for d in range(dim):
                    gi[d] = dx[d] * gio
                    gj[d] = dx[d] * gjo
            vdotr = 0.0
            for d in range(dim):
                vdotr += vij[d] * dx[d]
            hbar = (hii + hj) * 0.5
            mu = hbar * vdotr
            denom = r * r
            eta_h = hbar * eta2
            eta_h *= hbar
            denom += eta_h
            mu /= denom
            cbar = 0.5 * (csi + cs[j])
            rhobar = 0.5 * (rhoi + rho[j])
            pi_ = ((-alpha) * cbar * mu + (beta * mu) * mu) / rhobar
            if use_balsara:
                pi_ = (pi_ * 0.5) * (bi + bals[j])
            approaching = vdotr < 0.0
            if not approaching:
                pi_ = 0.0
            poj = p_over[j]
            mj = m[j]
            vdot_gi = 0.0
            vdot_gbar = 0.0
            for d in range(dim):
                gbar = (gi[d] + gj[d]) * 0.5
                vdot_gi += vij[d] * gi[d]
                vdot_gbar += vij[d] * gbar
                pres = poi * gi[d] + poj * gj[d]
                acc[d] += (-mj) * (pres + pi_ * gbar)
            s1 += mj * vdot_gi
            s2 += (mj * pi_) * vdot_gbar
            hmax = (hii if hii > hj else hj) * support
            if approaching and r <= hmax:
                am = abs(mu)
                if am > max_mu:
                    max_mu = am
        for d in range(dim):
            out_a[i - lo, d] = acc[d]
        out_s1[i - lo] = s1
        out_s2[i - lo] = s2
    return max_mu


def _pair_gradients(x, offsets, indices, lo, hi, dim, psel, pdiv, per_pair,
                    mode, cmat, side, out):
    k0 = offsets[lo]
    dx = np.empty(3)
    for i in range(lo, hi):
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            o = k - k0
            _sep(x, i, j, dim, psel, pdiv, dx)
            pp = per_pair[o]
            if mode == 0:
                for d in range(dim):
                    out[o, d] = dx[d] * pp
            else:
                row = i if side == 0 else j
                for a in range(dim):
                    s = 0.0
                    for b in range(dim):
                        s += cmat[row, a, b] * (-dx[b])
                    out[o, a] = s * pp
    return None


def _radii(x, offsets, indices, lo, hi, dim, psel, pdiv, out_r):
    k0 = offsets[lo]
    dx = np.empty(3)
    for i in range(lo, hi):
        for k in range(offsets[i], offsets[i + 1]):
            out_r[k - k0] = _sep(x, i, indices[k], dim, psel, pdiv, dx)


def _counts_r(r, h, offsets, n, factor, counts):
    for i in range(n):
        rmax = factor * h[i]
        c = 0
        for k in range(offsets[i], offsets[i + 1]):
            if r[k] <= rmax:
                c += 1
        counts[i] = c


def _filter_count(offsets, indices, r, h, n, support, kept):
    for i in range(n):
        hi_ = h[i]
        c = 0
        for k in range(offsets[i], offsets[i + 1]):
            hj = h[indices[k]]
            hmax = (hi_ if hi_ > hj else hj) * support
            if r[k] <= hmax:
                c += 1
        kept[i] = c


def _filter_fill(offsets, indices, r, h, n, support, new_offsets,
                 new_indices):
    for i in range(n):
        hi_ = h[i]
        p = new_offsets[i]
        for k in range(offsets[i], offsets[i + 1]):
            j = indices[k]
            hj = h[j]
            hmax = (hi_ if hi_ > hj else hj) * support
            if r[k] <= hmax:
                new_indices[p] = j
                p += 1


def _tau_inv(tau, rows, dim, rcond, out):
    for i in range(rows):
        t = tau[i]
        o = out[i]
        if dim == 1:
            reg = max(t[0, 0] * rcond, 1e-300)
            o[0, 0] = 1.0 / (t[0, 0] + reg)
        elif dim == 2:
            reg = max((t[0, 0] + t[1, 1]) * rcond, 1e-300)
            a = t[0, 0] + reg
            b = t[0, 1]
            c = t[1, 0]
            d = t[1, 1] + reg
            det = a * d - b * c
            o[0, 0] = d / det
            o[0, 1] = -b / det
            o[1, 0] = -c / det
            o[1, 1] = a / det
        else:
            reg = max((t[0, 0] + t[1, 1] + t[2, 2]) * rcond, 1e-300)
            a = t[0, 0] + reg
            b = t[0, 1]
            c = t[0, 2]
            d = t[1, 0]
            e = t[1, 1] + reg
            f = t[1, 2]
            g = t[2, 0]
            hh = t[2, 1]
            k = t[2, 2] + reg
            A = e * k - f * hh
            B = f * g - d * k
            C = d * hh - e * g
            det = a * A + b * B + c * C
            o[0, 0] = A / det
            o[0, 1] = (c * hh - b * k) / det
            o[0, 2] = (b * f - c * e) / det
            o[1, 0] = B / det
            o[1, 1] = (a * k - c * g) / det
            o[1, 2] = (c * d - a * f) / det
            o[2, 0] = C / det
            o[2, 1] = (b * g - a * hh) / det
            o[2, 2] = (a * e - b * d) / det


#: JIT compilation order: callees before callers so callers capture the
#: compiled dispatchers through module globals.
_JIT_ORDER = (
    "_sinpoly", "_cospoly", "_sincos", "_powi", "_pow_pos", "_sep",
    "_shape", "_pair_kernel", "_rowsum", "_iad_tau",
    "_div_curl", "_forces", "_pair_gradients", "_radii", "_counts_r",
    "_filter_count", "_filter_fill", "_tau_inv",
)

_JITTED = False
_CACHED: Optional["NumbaImpl"] = None
_FAILED: Optional[str] = None


class NumbaImpl:
    """Low-level op table delegating to the JIT dispatchers.

    Same surface as :class:`repro.backend.cffi_backend.CffiImpl`; arrays
    are passed through unchanged (the mirrors index them natively).
    """

    name = "numba"

    def __init__(self, version: str, thread_layer: str):
        self.version = version
        self.thread_layer = thread_layer

    def pair_kernel(self, x, h, whn, whn1, offsets, indices, lo, hi, dim,
                    psel, pdiv, kind, p1, want, side, w, gs, dwdh):
        _pair_kernel(x, h, whn, whn1, offsets, indices, lo, hi, dim, psel,
                     pdiv, kind, p1, want, side, w, gs, dwdh)

    def rowsum(self, offsets, indices, lo, hi, wgt, vals, out):
        _rowsum(offsets, indices, lo, hi, wgt, vals, out)

    def iad_tau(self, x, offsets, indices, lo, hi, dim, psel, pdiv, m, rho,
                w, tau):
        _iad_tau(x, offsets, indices, lo, hi, dim, psel, pdiv, m, rho, w,
                 tau)

    def div_curl(self, x, v, offsets, indices, lo, hi, dim, psel, pdiv, m,
                 gs, divsum, curlsum):
        _div_curl(x, v, offsets, indices, lo, hi, dim, psel, pdiv, m, gs,
                  divsum, curlsum)

    def forces(self, x, v, h, m, rho, p_over, cs, offsets, indices, lo, hi,
               dim, psel, pdiv, wi, wj, gsi, gsj, use_iad, cmat, bals,
               use_balsara, alpha, beta, eta2, support, inline_j, kind, p1,
               whn, whn1, out_a, out_s1, out_s2):
        return _forces(x, v, h, m, rho, p_over, cs, offsets, indices, lo,
                       hi, dim, psel, pdiv, wi, wj, gsi, gsj, use_iad,
                       cmat, bals, use_balsara, alpha, beta, eta2, support,
                       inline_j, kind, p1, whn, whn1, out_a, out_s1,
                       out_s2)

    def pair_gradients(self, x, offsets, indices, lo, hi, dim, psel, pdiv,
                       per_pair, mode, cmat, side, out):
        _pair_gradients(x, offsets, indices, lo, hi, dim, psel, pdiv,
                        per_pair, mode, cmat, side, out)

    def radii(self, x, offsets, indices, lo, hi, dim, psel, pdiv, out_r):
        _radii(x, offsets, indices, lo, hi, dim, psel, pdiv, out_r)

    def counts_r(self, r, h, offsets, n, factor, out):
        _counts_r(r, h, offsets, n, factor, out)

    def filter_count(self, offsets, indices, r, h, n, support, kept):
        _filter_count(offsets, indices, r, h, n, support, kept)

    def filter_fill(self, offsets, indices, r, h, n, support, new_offsets,
                    new_indices):
        _filter_fill(offsets, indices, r, h, n, support, new_offsets,
                     new_indices)

    def tau_inv(self, tau, rows, dim, rcond, out):
        _tau_inv(tau, rows, dim, rcond, out)


def load_numba_impl() -> NumbaImpl:
    """Import numba, JIT the mirrors (once), return the op table."""
    global _JITTED, _CACHED, _FAILED
    if _CACHED is not None:
        return _CACHED
    if _FAILED is not None:
        raise BackendUnavailableError(_FAILED)
    try:
        import numba
    except ImportError as exc:
        _FAILED = f"numba not importable: {exc}"
        raise BackendUnavailableError(_FAILED)
    if not _JITTED:
        jit = numba.njit(fastmath=False)
        g = globals()
        for fname in _JIT_ORDER:
            g[fname] = jit(g[fname])
        _JITTED = True
    try:
        thread_layer = str(numba.config.THREADING_LAYER)
    except Exception:  # pragma: no cover - config surface varies
        thread_layer = "unknown"
    _CACHED = NumbaImpl(
        version=f"numba {numba.__version__}", thread_layer=thread_layer
    )
    return _CACHED
