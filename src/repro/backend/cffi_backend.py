"""Runtime-compiled C backend (cffi ABI mode + the system C compiler).

The compiled hot path needs nothing beyond ``cffi`` and a C compiler:
the C translation unit in :mod:`repro.backend.csrc` is compiled once per
(source, compiler, flags) fingerprint into a shared library cached under
the system temp directory, then loaded with ``ffi.dlopen``.  Any failure
along the way — no ``cffi``, no working C compiler, unwritable cache —
raises :class:`~repro.backend.base.BackendUnavailableError` and the
registry falls back to numpy.

Arrays cross the boundary zero-copy via ``ffi.from_buffer``, and an
ABI-mode call releases the interpreter lock for its duration: the ops
hold no state between calls (no static or global scratch in the C unit),
so the phase executor's threads call them concurrently on disjoint row
ranges of the same arrays.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

from .base import BackendUnavailableError
from .csrc import CDEF, SOURCE

__all__ = ["load_cffi_impl", "CffiImpl"]

#: Optimization flags; ``-march=native`` is retried-without on compilers
#: or platforms that reject it.  Strict IEEE: no ``-ffast-math``.
_BASE_FLAGS = ("-O3", "-fPIC", "-shared")
_NATIVE_FLAG = "-march=native"

_CACHED: Optional["CffiImpl"] = None
_FAILED: Optional[str] = None


def _compiler() -> str:
    return os.environ.get("CC", "gcc")


def _compiler_version(cc: str) -> str:
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BackendUnavailableError(f"C compiler {cc!r} not runnable: {exc}")
    if out.returncode != 0:
        raise BackendUnavailableError(
            f"C compiler {cc!r} not runnable (exit {out.returncode})"
        )
    return out.stdout.splitlines()[0] if out.stdout else cc


def _build_library(cc: str, cc_version: str) -> str:
    """Compile the backend source into a cached .so; return its path."""
    key = hashlib.sha256(
        "\x00".join((SOURCE, cc_version, " ".join(_BASE_FLAGS))).encode()
    ).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-backend-{os.getuid()}"
    )
    lib_path = os.path.join(cache_dir, f"rp_ops_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise BackendUnavailableError(f"cannot create build cache: {exc}")

    src_path = os.path.join(cache_dir, f"rp_ops_{key}.c")
    tmp_lib = f"{lib_path}.tmp{os.getpid()}"
    try:
        with open(src_path, "w") as fh:
            fh.write(SOURCE)
        for flags in ((_NATIVE_FLAG,) + _BASE_FLAGS, _BASE_FLAGS):
            cmd = [cc, *flags, src_path, "-o", tmp_lib, "-lm"]
            try:
                res = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise BackendUnavailableError(f"compile failed: {exc}")
            if res.returncode == 0:
                break
        else:
            tail = (res.stderr or "").strip().splitlines()[-3:]
            raise BackendUnavailableError(
                "compile failed: " + " | ".join(tail)
            )
        os.replace(tmp_lib, lib_path)  # atomic: concurrent builds race safely
    except OSError as exc:
        raise BackendUnavailableError(f"build cache I/O failed: {exc}")
    finally:
        if os.path.exists(tmp_lib):
            try:
                os.unlink(tmp_lib)
            except OSError:
                pass
    return lib_path


class CffiImpl:
    """Low-level op table bound to the compiled shared library.

    Method signatures take numpy arrays; pointers are cast zero-copy.
    This is the contract :class:`repro.backend.compiled.CompiledOps`
    orchestrates against.
    """

    name = "cffi"

    def __init__(self, ffi, lib, version: str):
        self._ffi = ffi
        self._lib = lib
        self.version = version

    def _d(self, arr: np.ndarray):
        return self._ffi.cast("double *", self._ffi.from_buffer(arr))

    def _i(self, arr: np.ndarray):
        return self._ffi.cast("int64_t *", self._ffi.from_buffer(arr))

    def pair_kernel(self, x, h, whn, whn1, offsets, indices, lo, hi, dim,
                    psel, pdiv, kind, p1, want, side, w, gs, dwdh):
        self._lib.rp_pair_kernel(
            self._d(x), self._d(h), self._d(whn), self._d(whn1),
            self._i(offsets), self._i(indices), lo, hi, dim,
            self._d(psel), self._d(pdiv), kind, p1, want, side,
            self._d(w), self._d(gs), self._d(dwdh),
        )

    def rowsum(self, offsets, indices, lo, hi, wgt, vals, out):
        self._lib.rp_rowsum(
            self._i(offsets), self._i(indices), lo, hi,
            self._d(wgt), self._d(vals), self._d(out),
        )

    def iad_tau(self, x, offsets, indices, lo, hi, dim, psel, pdiv, m, rho,
                w, tau):
        self._lib.rp_iad_tau(
            self._d(x), self._i(offsets), self._i(indices), lo, hi, dim,
            self._d(psel), self._d(pdiv), self._d(m), self._d(rho),
            self._d(w), self._d(tau),
        )

    def div_curl(self, x, v, offsets, indices, lo, hi, dim, psel, pdiv, m,
                 gs, divsum, curlsum):
        self._lib.rp_div_curl(
            self._d(x), self._d(v), self._i(offsets), self._i(indices),
            lo, hi, dim, self._d(psel), self._d(pdiv), self._d(m),
            self._d(gs), self._d(divsum), self._d(curlsum),
        )

    def forces(self, x, v, h, m, rho, p_over, cs, offsets, indices, lo, hi,
               dim, psel, pdiv, wi, wj, gsi, gsj, use_iad, cmat, bals,
               use_balsara, alpha, beta, eta2, support, inline_j, kind, p1,
               whn, whn1, out_a, out_s1, out_s2):
        return self._lib.rp_forces(
            self._d(x), self._d(v), self._d(h), self._d(m), self._d(rho),
            self._d(p_over), self._d(cs), self._i(offsets),
            self._i(indices), lo, hi, dim, self._d(psel), self._d(pdiv),
            self._d(wi), self._d(wj), self._d(gsi), self._d(gsj),
            use_iad, self._d(cmat), self._d(bals), use_balsara,
            alpha, beta, eta2, support, inline_j, kind, p1,
            self._d(whn), self._d(whn1),
            self._d(out_a), self._d(out_s1), self._d(out_s2),
        )

    def pair_gradients(self, x, offsets, indices, lo, hi, dim, psel, pdiv,
                       per_pair, mode, cmat, side, out):
        self._lib.rp_pair_gradients(
            self._d(x), self._i(offsets), self._i(indices), lo, hi, dim,
            self._d(psel), self._d(pdiv), self._d(per_pair), mode,
            self._d(cmat), side, self._d(out),
        )

    def radii(self, x, offsets, indices, lo, hi, dim, psel, pdiv, out_r):
        self._lib.rp_radii(
            self._d(x), self._i(offsets), self._i(indices), lo, hi, dim,
            self._d(psel), self._d(pdiv), self._d(out_r),
        )

    def counts_r(self, r, h, offsets, n, factor, out):
        self._lib.rp_counts_r(
            self._d(r), self._d(h), self._i(offsets), n, factor,
            self._i(out),
        )

    def filter_count(self, offsets, indices, r, h, n, support, kept):
        self._lib.rp_filter_count(
            self._i(offsets), self._i(indices), self._d(r), self._d(h),
            n, support, self._i(kept),
        )

    def filter_fill(self, offsets, indices, r, h, n, support, new_offsets,
                    new_indices):
        self._lib.rp_filter_fill(
            self._i(offsets), self._i(indices), self._d(r), self._d(h),
            n, support, self._i(new_offsets), self._i(new_indices),
        )

    def tau_inv(self, tau, rows, dim, rcond, out):
        self._lib.rp_tau_inv(self._d(tau), rows, dim, rcond, self._d(out))

    def _i_or_null(self, arr: Optional[np.ndarray]):
        return self._ffi.NULL if arr is None else self._i(arr)

    def _d_or_null(self, arr: Optional[np.ndarray]):
        return self._ffi.NULL if arr is None else self._d(arr)

    def node_bounds(self, xs, rs, n, dim, n_nodes, child_start, child_count,
                    pstart, pend, lo, hi, rmax):
        self._lib.rp_node_bounds(
            self._d(xs), self._d(rs), n, dim, n_nodes, self._i(child_start),
            self._i(child_count), self._i(pstart), self._i(pend),
            self._d(lo), self._d(hi), self._d(rmax),
        )

    def walk(self, xs, rs, n, dim, symmetric, psel, pdiv, n_nodes,
             child_start, child_count, pstart, pend, order, lo, hi, rmax,
             include_self, offsets, cursor, out):
        self._lib.rp_walk(
            self._d(xs), self._d(rs), n, dim, symmetric, self._d(psel),
            self._d(pdiv), n_nodes, self._i(child_start),
            self._i(child_count), self._i(pstart), self._i(pend),
            self._i(order), self._d(lo), self._d(hi), self._d(rmax),
            include_self, self._i_or_null(offsets), self._i(cursor),
            self._i_or_null(out),
        )

    def sort_rows(self, offsets, n, indices):
        self._lib.rp_sort_rows(self._i(offsets), n, self._i(indices))

    def pairs_within(self, xw, radii, offsets, indices, n, dim, psel, pdiv,
                     new_offsets, out):
        self._lib.rp_pairs_within(
            self._d(xw), self._d(radii), self._i(offsets), self._i(indices),
            n, dim, self._d(psel), self._d(pdiv), self._i(new_offsets),
            self._i(out),
        )

    def gravity(self, x, m, leaves, center, half, child_start, child_count,
                pstart, pend, order, mass, com, m2, m3, m4, rank, theta,
                g_const, eps2, acc, phi, counts):
        self._lib.rp_gravity(
            self._d(x), self._d(m), self._i(leaves), leaves.shape[0],
            self._d(center), self._d(half), self._i(child_start),
            self._i(child_count), self._i(pstart), self._i(pend),
            self._i(order), self._d(mass), self._d(com),
            self._d_or_null(m2), self._d_or_null(m3), self._d_or_null(m4),
            rank, theta, g_const, eps2, self._d(acc), self._d(phi),
            self._i(counts),
        )


def load_cffi_impl() -> CffiImpl:
    """Build (or reuse) the shared library and bind the op table."""
    global _CACHED, _FAILED
    if _CACHED is not None:
        return _CACHED
    if _FAILED is not None:
        raise BackendUnavailableError(_FAILED)
    try:
        try:
            import cffi
        except ImportError as exc:
            raise BackendUnavailableError(f"cffi not importable: {exc}")
        cc = _compiler()
        cc_version = _compiler_version(cc)
        lib_path = _build_library(cc, cc_version)
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        try:
            lib = ffi.dlopen(lib_path)
        except OSError as exc:
            raise BackendUnavailableError(f"dlopen failed: {exc}")
    except BackendUnavailableError as exc:
        _FAILED = str(exc)
        raise
    version = f"cffi {cffi.__version__} / {cc_version}"
    _CACHED = CffiImpl(ffi, lib, version)
    return _CACHED


def _self_test() -> None:  # pragma: no cover - manual smoke hook
    impl = load_cffi_impl()
    print(impl.version, file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _self_test()
