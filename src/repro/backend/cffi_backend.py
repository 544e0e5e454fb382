"""Runtime-compiled C backend (cffi ABI mode + the system C compiler).

The compiled hot path needs nothing beyond ``cffi`` and a C compiler:
the C translation unit in :mod:`repro.backend.csrc` is compiled once per
(source, compiler, flags) fingerprint into a shared library cached under
the system temp directory, then loaded with ``ffi.dlopen``.  Any failure
along the way — no ``cffi``, no working C compiler, unwritable cache —
raises :class:`~repro.backend.base.BackendUnavailableError` and the
registry falls back to numpy.

This module only builds and loads; the one marshalling layer over the
``rp_*`` entry points is :class:`repro.backend.compiled.CompiledOps`.
Arrays cross the boundary zero-copy via ``ffi.from_buffer``, and an
ABI-mode call releases the interpreter lock for its duration: neither
the C unit (no static or global scratch; row buffers come with each
call) nor the op table holds state between calls, so the phase
executor's threads — and any number of simulations in one process —
call them concurrently.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional, Tuple

from .base import BackendUnavailableError
from .csrc import CDEF, SOURCE

__all__ = ["load_library"]

#: Optimization flags (part of the build-cache key); ``-march=native`` is
#: retried-without on compilers or platforms that reject it.  Strict
#: IEEE: no ``-ffast-math``, no reassociation.  The two ``-fno-`` flags
#: change no value: without ``errno`` ``sqrt`` is one (vector)
#: instruction, and with no trap to preserve the compiler may compute
#: both arms of a select — together they let the row kernels vectorise.
_BASE_FLAGS = (
    "-O3", "-fPIC", "-shared", "-fno-math-errno", "-fno-trapping-math",
)
_NATIVE_FLAG = "-march=native"

_CACHED: Optional[Tuple[object, object, str]] = None
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


def load_library() -> Tuple[object, object, str]:
    """Build (or reuse) the shared library: ``(ffi, lib, version)``."""
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
    _CACHED = (ffi, lib, f"cffi {cffi.__version__} / {cc_version}")
    return _CACHED


def _self_test() -> None:  # pragma: no cover - manual smoke hook
    print(load_library()[2], file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _self_test()
