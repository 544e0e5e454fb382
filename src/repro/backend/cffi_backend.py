"""Runtime-compiled C backend (cffi ABI mode + the system C compiler).

The compiled hot path needs nothing beyond ``cffi`` and a C compiler:
the C translation unit in :mod:`repro.backend.csrc` is compiled once per
(source, declarations, compiler, flags) fingerprint into a shared
library cached under the system temp directory, and the parsed
declarations are written once beside it, under the same key, as an
out-of-line ABI module (``ffi.set_source(name, None)``) that also
records the compiler's version line.  A process whose cache is warm
reads that module and opens the library with ``ffi.dlopen``: it never
imports ``pycparser``, which would re-parse ``CDEF`` on every start, nor
runs the compiler — the key names the compiler by its resolved path,
size and modification time.  Any failure along the way — no ``cffi``, no working C compiler,
unwritable cache — raises
:class:`~repro.backend.base.BackendUnavailableError` and the registry
falls back to numpy.

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
import shutil
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
    import subprocess

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


def _compiler_identity(cc: str) -> str:
    """The compiler's resolved path, size and modification time: what
    keys the cache, so that a warm process need not run it."""
    found = shutil.which(cc)
    if found is None:
        raise BackendUnavailableError(f"C compiler {cc!r} not found")
    real = os.path.realpath(found)
    st = os.stat(real)
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


def _cache_key(compiler: str) -> str:
    """The one key of the cached library and of its FFI module: every
    input of either (a new declaration with an old source is a new key)."""
    return hashlib.sha256(
        "\x00".join((SOURCE, CDEF, compiler, " ".join(_BASE_FLAGS))).encode()
    ).hexdigest()[:16]


def _cache_dir() -> str:
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-backend-{os.getuid()}"
    )
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise BackendUnavailableError(f"cannot create build cache: {exc}")
    return cache_dir


def _build_library(cc: str, cache_dir: str, key: str) -> str:
    """Compile the backend source into a cached .so; return its path."""
    lib_path = os.path.join(cache_dir, f"rp_ops_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    import subprocess

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
        _unlink_quietly(tmp_lib)
    return lib_path


def _read_ffi(path: str):
    """``(ffi, compiler version)`` of a cached FFI module, or ``None`` when
    the file is missing or incomplete (a module cut short either fails to
    compile or never reaches its last statement, the version line)."""
    import _cffi_backend

    try:
        with open(path) as fh:
            code = compile(fh.read(), path, "exec")
        namespace: dict = {}
        exec(code, namespace)
    except (OSError, SyntaxError, ValueError):
        return None
    ffi, version = namespace.get("ffi"), namespace.get("CC_VERSION")
    if not isinstance(ffi, _cffi_backend.FFI) or not isinstance(version, str):
        return None
    return ffi, version


def _load_ffi(cc: str, cache_dir: str, key: str):
    """``(ffi, compiler version)`` of ``CDEF``: read from the cached
    module, else parsed once (pycparser) and written there, atomically,
    for every later process."""
    name = f"rp_ops_{key}_ffi"
    path = os.path.join(cache_dir, f"{name}.py")
    loaded = _read_ffi(path)
    if loaded is not None:
        return loaded
    import cffi
    from cffi.recompiler import make_py_source

    parsed = cffi.FFI()
    parsed.cdef(CDEF)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        make_py_source(parsed, name, tmp)
        with open(tmp, "a") as fh:
            fh.write(f"\nCC_VERSION = {_compiler_version(cc)!r}\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise BackendUnavailableError(f"build cache I/O failed: {exc}")
    finally:
        _unlink_quietly(tmp)
    loaded = _read_ffi(path)
    if loaded is None:
        raise BackendUnavailableError(f"unreadable FFI module {path}")
    return loaded


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def load_library() -> Tuple[object, object, str]:
    """Build (or reuse) the shared library: ``(ffi, lib, version)``."""
    global _CACHED, _FAILED
    if _CACHED is not None:
        return _CACHED
    if _FAILED is not None:
        raise BackendUnavailableError(_FAILED)
    try:
        try:
            import _cffi_backend
        except ImportError as exc:
            raise BackendUnavailableError(f"cffi not importable: {exc}")
        cc = _compiler()
        cache_dir, key = _cache_dir(), _cache_key(_compiler_identity(cc))
        lib_path = _build_library(cc, cache_dir, key)
        ffi, cc_version = _load_ffi(cc, cache_dir, key)
        try:
            lib = ffi.dlopen(lib_path)
        except OSError as exc:
            raise BackendUnavailableError(f"dlopen failed: {exc}")
    except BackendUnavailableError as exc:
        _FAILED = str(exc)
        raise
    _CACHED = (ffi, lib, f"cffi {_cffi_backend.__version__} / {cc_version}")
    return _CACHED


def _self_test() -> None:  # pragma: no cover - manual smoke hook
    print(load_library()[2], file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    _self_test()
