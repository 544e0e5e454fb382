"""Backend layer: registry semantics, graceful fallback, numerical parity.

Four pillars:

* registry/selection — unknown names rejected everywhere (``ValueError``
  from :func:`repro.backend.select_backend`, ``ValueError`` from
  ``ExecConfig``, exit code 2 from the CLI), ``auto`` resolution, and
  the warn-once numpy degradation when a named compiled backend cannot
  be built (exercised by faking factory failure).
* phase parity — every backend-dispatched phase (density standard and
  generalized, grad-h, IAD matrices, div/curl, forces with and without
  Balsara) agrees with its numpy reference on norm-scaled tolerances
  far tighter than any physics gate, and neighbour counts are bitwise
  (the h-iteration must walk the *identical* trajectory).
* scenario conformance — every registry scenario integrated with each
  available compiled backend lands within golden tolerance of the
  numpy run, including pair-context-free and threaded execution.
* pure-reorganization proof — the numpy backend reproduces the
  committed golden masters, i.e. threading the dispatch layer through
  the phases changed nothing for hosts without a compiled toolchain.

Compiled-backend tests self-skip on hosts without a working C
toolchain; the registry/fallback tests always run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BackendUnavailableError,
    available_backends,
    select_backend,
)
from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.gradients.iad import compute_iad_matrices
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.scenarios import (
    all_scenarios,
    compare_records,
    get_scenario,
    golden_path,
    load_golden,
    record_run,
)
from repro.scenarios.golden import GOLDEN_ATOL, GOLDEN_RTOL
from repro.sph.density import compute_density, grad_h_terms
from repro.sph.forces import compute_forces, velocity_divergence_curl
from repro.sph.smoothing import SmoothingConfig, update_smoothing_lengths
from repro.sph.viscosity import ViscosityParams, balsara_switch
from repro.timestepping.steppers import TimestepParams

AVAILABLE = available_backends()
COMPILED = ["cffi"] if AVAILABLE["cffi"] else []
FIELDS = ("x", "v", "rho", "u", "p", "h", "a", "du")

compiled_backend = pytest.mark.parametrize(
    "backend_name",
    COMPILED
    or [pytest.param("cffi", marks=pytest.mark.skip(
        reason="no compiled backend available on this host"))],
)


def assert_norm_close(got, ref, tol, label):
    """Max abs error scaled by the reference's norm (never bare relative
    on near-zero entries — that manufactures meaningless huge ratios)."""
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = float(np.max(np.abs(got - ref)))
    bound = tol * scale + GOLDEN_ATOL
    assert err <= bound, (
        f"{label}: norm-scaled error {err:.3e} exceeds {bound:.3e} "
        f"(scale {scale:.3e})"
    )


# --------------------------------------------------------------------------
# registry / selection / fallback
# --------------------------------------------------------------------------


@compiled_backend
def test_generated_c_unit_compiles_warning_clean(backend_name, tmp_path):
    """The unit the backend builds at run time, under the CI job's flags."""
    import subprocess

    from repro.backend.cffi_backend import _BASE_FLAGS, _compiler
    from repro.backend.csrc import SOURCE

    src = tmp_path / "rp_ops.c"
    src.write_text(SOURCE)
    res = subprocess.run(
        [_compiler(), *_BASE_FLAGS, "-Wall", "-Wextra", "-Werror", str(src),
         "-o", str(tmp_path / "rp_ops.so"), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


@compiled_backend
def test_library_and_ffi_module_share_one_key_over_source_and_declarations(
    backend_name, monkeypatch,
):
    """The cached .so and its pre-parsed FFI module sit side by side under
    one key, and that key moves with the declarations as with the source."""
    import os

    from repro.backend import cffi_backend as cb

    select_backend(backend_name)
    compiler = cb._compiler_identity(cb._compiler())
    key = cb._cache_key(compiler)
    cache_dir = cb._cache_dir()
    assert os.path.exists(os.path.join(cache_dir, f"rp_ops_{key}.so"))
    assert os.path.exists(os.path.join(cache_dir, f"rp_ops_{key}_ffi.py"))
    for name in ("CDEF", "SOURCE"):
        monkeypatch.setattr(cb, name, getattr(cb, name) + "\n")
        assert cb._cache_key(compiler) != key
        monkeypatch.undo()


@compiled_backend
@pytest.mark.parametrize("cut_at", [0.5, "ffi = ", "CC_VERSION"])
def test_a_torn_ffi_module_is_rebuilt_not_imported(backend_name, cut_at, tmp_path):
    """A module cut short by a crash mid-write is parsed again and
    replaced; the rebuilt one declares every entry point and records the
    compiler's version line."""
    from repro.backend import cffi_backend as cb

    cc, key = cb._compiler(), "0123456789abcdef"
    path = tmp_path / f"rp_ops_{key}_ffi.py"
    whole = cb._load_ffi(cc, str(tmp_path), key)
    text = path.read_text()
    end = int(len(text) * cut_at) if isinstance(cut_at, float) else text.index(cut_at)
    path.write_text(text[:end])
    assert cb._read_ffi(str(path)) is None
    rebuilt = cb._load_ffi(cc, str(tmp_path), key)
    assert path.read_text() == text
    for ffi, version in (whole, rebuilt):
        assert ffi.sizeof("rp_rows") == 24
        assert version == cb._compiler_version(cc)


@compiled_backend
def test_row_loops_are_vectorised(backend_name, tmp_path):
    """The canary: every loop over the pairs of a row (``RP_EACH`` — row
    geometry, row shape, the count sweep, the force-row stages, ...), the
    lane loops of the two gravity interaction lists and the node-moment
    op's particle pass are reported vectorised under the product flags.
    An edit that breaks
    that — a call that sets ``errno``, a branch inside a row loop, a
    dropped flag — halves the kernels without failing any parity test;
    it fails this one instead."""
    import platform
    import re
    import subprocess

    from repro.backend.cffi_backend import (
        _BASE_FLAGS,
        _NATIVE_FLAG,
        _compiler,
        _compiler_version,
    )
    from repro.backend.csrc import SOURCE

    cc = _compiler()
    version = re.match(r"gcc\b.*?\b(\d+)\.\d+\.\d+", _compiler_version(cc))
    if (
        platform.machine() not in ("x86_64", "AMD64")
        or version is None
        or int(version.group(1)) < 12
    ):
        pytest.skip("the report format is pinned for gcc >= 12 on x86-64")
    src = tmp_path / "rp_ops.c"
    src.write_text(SOURCE)
    res = subprocess.run(
        [cc, _NATIVE_FLAG, *_BASE_FLAGS, "-fopt-info-vec-optimized", str(src),
         "-o", str(tmp_path / "rp_ops.so"), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    vectorised = {
        int(line) for line in re.findall(
            r"rp_ops\.c:(\d+):\d+: optimized: loop vectorized", res.stderr
        )
    }
    lines = SOURCE.splitlines()
    row_loops = [
        number for number, line in enumerate(lines, start=1)
        if ("RP_EACH(" in line or "RP_SHAPE_ROW(" in line)
        # not the macros' own definitions (continued lines included)
        and not line.lstrip().startswith("#define")
        and not lines[number - 2].rstrip().endswith("\\")
    ]
    assert len(row_loops) > 25
    missed = [
        f"{number}: {lines[number - 1].strip()}"
        for number in row_loops if number not in vectorised
    ]
    assert not missed, "row loops not vectorised:\n" + "\n".join(missed)


def test_unknown_backend_name_rejected():
    # "numba" was a choice until 2.0.0; it is now as unknown as any other.
    for name in ("fortran", "numba"):
        with pytest.raises(ValueError, match="unknown backend"):
            select_backend(name)


def test_exec_config_validates_backend():
    for name in ("fortran", "numba"):
        with pytest.raises(ValueError, match="backend must be one of"):
            ExecConfig(backend=name)


def test_numpy_backend_is_the_reference():
    b = select_backend("numpy")
    assert b.name == "numpy"
    assert b.ops is None and not b.compiled
    desc = b.describe()
    assert desc["name"] == "numpy" and desc["compiled"] is False
    assert "numpy" in desc["version"]


def test_available_backends_probes_all_names():
    avail = available_backends()
    assert set(avail) == {"numpy", "cffi"}
    assert avail["numpy"] is True


def test_auto_resolves_to_best_available():
    resolved = select_backend("auto")
    if COMPILED:
        assert resolved.name == COMPILED[0]
        assert resolved.compiled
    else:
        assert resolved.name == "numpy"


@pytest.fixture
def isolated_registry(monkeypatch):
    """Fake an unavailable compiled toolchain, restore real state after."""

    def unavailable():
        raise BackendUnavailableError("toolchain removed for test")

    backend_mod._reset_backends()
    backend_mod._WARNED.clear()
    monkeypatch.setitem(backend_mod._FACTORIES, "cffi", unavailable)
    yield
    backend_mod._reset_backends()
    backend_mod._WARNED.clear()


def test_named_unavailable_backend_warns_once_and_degrades(isolated_registry):
    with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
        b = select_backend("cffi")
    assert b.name == "numpy" and b.ops is None
    # Second request: same degradation, no second warning.
    backend_mod._reset_backends()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b2 = select_backend("cffi")
    assert b2.name == "numpy"


def test_auto_degrades_silently(isolated_registry):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = select_backend("auto")
    assert b.name == "numpy"


def test_simulation_survives_unavailable_backend(isolated_registry):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=6, layers=3))
    with pytest.warns(RuntimeWarning, match="falling back"):
        sim = Simulation(
            particles, box, eos,
            run_config=RunConfig(exec=ExecConfig(backend="cffi")),
        )
    try:
        assert sim.backend.name == "numpy"
        assert sim.backend_requested == "cffi"
        sim.step()
    finally:
        sim.close()


# --------------------------------------------------------------------------
# phase-level parity
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def phase_state():
    """A small evolved square patch: particles, list, kernel, box."""
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=10, layers=10)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    sim = Simulation(particles, box, eos, config=config)
    sim.step()
    sim.step()
    sim.compute_rates()
    yield sim
    sim.close()


PHASE_TOL = 1e-11  # single-pass reassociation roundoff, orders below gates


@compiled_backend
def test_phase_parity(phase_state, backend_name):
    sim = phase_state
    p, nlist, kernel, box = sim.particles, sim._nlist, sim.kernel, sim.box
    n = p.n
    b = select_backend(backend_name)
    assert b.compiled and b.ops.supports(kernel)

    # Neighbour counts drive the h iteration: bitwise or bust.
    i_pair = np.repeat(np.arange(n), np.diff(nlist.offsets))
    within = _pair_radii_numpy(p.x, nlist, box) <= 2.0 * p.h[i_pair]
    counts_ref = np.bincount(i_pair[within], minlength=n)
    # One sweep of the fused op: equal updates are equal counts (the
    # update factor is strictly monotone in the count).  At a tolerance
    # this tight only a count on the target stops a row before its
    # update, which leaves h as it is.
    n_target = sim.config.n_neighbors
    table = update_smoothing_lengths(
        1.0, np.arange(nlist.longest_row + 1), n_target, p.dim
    )
    config = SmoothingConfig(n_target=n_target, tolerance=1e-9, max_iterations=1)
    h_out = p.h.copy()
    state = np.zeros(n, dtype=np.int8)
    sweeps = np.zeros(n, dtype=np.int32)
    cut = b.ops.adapt(
        p.x, h_out, np.full(n, np.inf), nlist.as_int32(), box, table, config,
        state, sweeps,
    )
    assert cut is None  # no support, no emission
    assert np.array_equal(
        h_out, update_smoothing_lengths(p.h, counts_ref, n_target, p.dim)
    )
    assert np.array_equal(state == 1, counts_ref == n_target)
    assert np.all(state > 0) and np.all(sweeps == 1)

    rows = (0, n)
    for volume_elements in ("standard", "generalized"):
        ref = compute_density(p, nlist, kernel, box, rows=rows,
                              volume_elements=volume_elements)
        got = compute_density(p, nlist, kernel, box, rows=rows,
                              volume_elements=volume_elements, backend=b)
        assert_norm_close(got, ref, PHASE_TOL,
                          f"density[{volume_elements}]/{backend_name}")

    ref = grad_h_terms(p, nlist, kernel, box, rows=rows)
    got = grad_h_terms(p, nlist, kernel, box, rows=rows, backend=b)
    assert_norm_close(got, ref, PHASE_TOL, f"grad_h/{backend_name}")

    cm_ref = compute_iad_matrices(p, nlist, kernel, box, rows=rows)
    cm = compute_iad_matrices(p, nlist, kernel, box, rows=rows, backend=b)
    # Closed-form adjugate inverse vs LAPACK: rounding-level difference.
    assert_norm_close(cm, cm_ref, 1e-9, f"iad_matrices/{backend_name}")

    div_ref, curl_ref = velocity_divergence_curl(p, nlist, kernel, box,
                                                 rows=rows)
    div, curl = velocity_divergence_curl(p, nlist, kernel, box, rows=rows,
                                         backend=b)
    assert_norm_close(div, div_ref, PHASE_TOL, f"div/{backend_name}")
    assert_norm_close(curl, curl_ref, PHASE_TOL, f"curl/{backend_name}")

    omega = np.ones(n)
    for gradients, visc, bf in (
        ("iad", ViscosityParams(), None),
        ("standard", ViscosityParams(use_balsara=True),
         balsara_switch(div_ref, curl_ref, p.cs, p.h)),
    ):
        kwargs = dict(viscosity=visc, rows=rows, omega=omega, balsara_f=bf)
        if gradients == "iad":
            kwargs["c_matrices"] = cm_ref
        f_ref = compute_forces(p, nlist, kernel, box, **kwargs)
        f = compute_forces(p, nlist, kernel, box, backend=b, **kwargs)
        tag = f"forces[{gradients}]/{backend_name}"
        assert_norm_close(f.a, f_ref.a, PHASE_TOL, f"{tag}.a")
        assert_norm_close(f.du, f_ref.du, PHASE_TOL, f"{tag}.du")
        assert_norm_close(f.max_mu, f_ref.max_mu, PHASE_TOL, f"{tag}.max_mu")


@compiled_backend
def test_list_columns_cross_the_boundary_without_a_copy(
    phase_state, backend_name, monkeypatch
):
    """The ops take the list's int32 column as it is.  A list that does
    not have one — int64 from a numpy search, or built from a strided
    view — is converted once per list, never per op call, and the ops
    themselves refuse it rather than widen and copy behind the caller's
    back; so do they refuse to write into a temporary."""
    from repro.tree.neighborlist import NeighborList

    sim = phase_state
    p, kernel, box = sim.particles, sim.kernel, sim.box
    b = select_backend(backend_name)
    ops, lib = b.ops, b.ops.lib
    column_addresses = []

    class Spy:
        def __getattr__(self, name):
            entry = getattr(lib, name)

            def call(*args):
                # rp_density(x, h, wgt, offsets, indices, ...)
                column_addresses.append(int(ops._ffi.cast("uintptr_t", args[4])))
                return entry(*args)

            return call

    monkeypatch.setattr(ops, "lib", Spy())
    narrow = sim._nlist.as_int32()
    wide = NeighborList(narrow.offsets, narrow.indices.astype(np.int64))
    strided = NeighborList(
        narrow.offsets, np.repeat(narrow.indices, 2)[::2]
    )
    assert wide.indices.dtype == np.int64
    assert strided.indices.dtype == np.int32
    assert strided.indices.flags.c_contiguous  # copied once, at construction
    ref = compute_density(p, narrow, kernel, box, rows=(0, p.n), backend=b)
    for nlist in (narrow, wide, strided):
        twin = nlist.as_int32()
        assert twin is nlist.as_int32()
        assert (twin is nlist) == (nlist is not wide)
        del column_addresses[:]
        for _ in range(3):
            got = compute_density(p, nlist, kernel, box, rows=(0, p.n), backend=b)
            assert np.array_equal(got, ref)
        assert column_addresses == [twin.indices.ctypes.data] * 3
        assert np.shares_memory(twin.indices, nlist.as_int32().indices)

    with pytest.raises(TypeError, match="as_int32"):
        ops.density_sums(p.x, p.h, p.m, wide, box, kernel, 0, p.n)
    with pytest.raises(TypeError, match="in place"):
        ops._out(np.empty((4, 2))[:, 0])
    with pytest.raises(TypeError, match="in place"):
        ops._out(np.empty(4, dtype=np.float32))


@compiled_backend
def test_row_kernels_stay_inside_their_scratch(phase_state, backend_name, monkeypatch):
    """``csrc.SCRATCH_ROWS`` is what Python allocates and the C unit
    carves up by hand: a sentinel row behind every block stays intact."""
    from repro.backend.csrc import SCRATCH_ROWS

    sim = phase_state
    p, kernel, box = sim.particles, sim.kernel, sim.box
    nlist = sim._nlist.as_int32()
    b = select_backend(backend_name)
    ops = b.ops
    blocks = []

    def guarded(op, nlist):
        cap = max(nlist.longest_row, 1)
        block = np.zeros((SCRATCH_ROWS[op] + 1) * cap)
        block[-cap:] = 12345.0
        blocks.append((op, block[-cap:]))
        return ops._out(block), cap

    monkeypatch.setattr(ops, "_scratch", guarded)
    # An update factor of 1 stops every row on its first sweep.
    h = p.h.copy()
    half = ops.adapt(
        p.x, h, np.full(p.n, np.inf), nlist, box,
        np.ones(nlist.longest_row + 1), SmoothingConfig(n_target=30),
        np.zeros(p.n, dtype=np.int8), np.zeros(p.n, dtype=np.int32),
        kernel.support,
    )
    assert np.array_equal(h, p.h)
    # The pair ops over the emitted half list and over the full list.
    compute_density(p, half, kernel, box, rows=(0, p.n), backend=b)
    compute_density(p, nlist, kernel, box, rows=(0, p.n), backend=b)
    cm = compute_iad_matrices(p, nlist, kernel, box, rows=(0, p.n), backend=b)
    div, curl = velocity_divergence_curl(p, nlist, kernel, box, rows=(0, p.n), backend=b)
    omega = np.ones(p.n)
    compute_forces(p, nlist, kernel, box, backend=b, rows=(0, p.n),
                   c_matrices=cm, omega=omega)
    compute_forces(p, nlist, kernel, box, backend=b, rows=(0, p.n), omega=omega,
                   viscosity=ViscosityParams(use_balsara=True),
                   balsara_f=balsara_switch(div, curl, p.cs, p.h))
    nlist.within(p.x, kernel.support * p.h, box, ops)
    assert {op for op, _ in blocks} == set(SCRATCH_ROWS)
    for op, sentinel in blocks:
        assert np.all(sentinel == 12345.0), op


def _pair_radii_numpy(x, nlist, box):
    i = np.repeat(np.arange(nlist.n), np.diff(nlist.offsets))
    dx = x[i] - x[nlist.indices]
    if box is not None:
        dx = box.min_image(dx)
    return np.sqrt(np.einsum("kd,kd->k", dx, dx))


# --------------------------------------------------------------------------
# kernel-row coverage: every family x dim x gradient flavour x box
# --------------------------------------------------------------------------


def _row_kernels():
    from repro.kernels.cubic_spline import CubicSplineKernel
    from repro.kernels.sinc import SincKernel
    from repro.kernels.wendland import (
        WendlandC2Kernel,
        WendlandC4Kernel,
        WendlandC6Kernel,
    )

    cases = []
    for dim in (1, 2, 3):
        cases += [
            ("m4", CubicSplineKernel, (), dim),
            ("wendland-c2", WendlandC2Kernel, (3,), dim),
            ("wendland-c4", WendlandC4Kernel, (3,), dim),
            ("wendland-c6", WendlandC6Kernel, (3,), dim),
            ("sinc-s5", SincKernel, (5.0,), dim),
            ("sinc-s4.5-pow", SincKernel, (4.5,), dim),
        ]
    cases += [
        (f"{name}-1d-form", cls, (1,), 1)
        for name, cls in (
            ("wendland-c2", WendlandC2Kernel),
            ("wendland-c4", WendlandC4Kernel),
            ("wendland-c6", WendlandC6Kernel),
        )
    ]
    return [
        pytest.param(cls, args, dim, id=f"{name}-{dim}d")
        for name, cls, args, dim in cases
    ]


def _row_cloud(dim, periodic):
    """A small cloud whose rows hold every special pair: the self pair
    (q = 0), padded pairs beyond both supports (q >= 2), pairs across
    the seam of a periodic axis, and neighbours of particle 0 placed an
    ulp either side of q = 1 — the M4 knot and, x = pi*q/2 being pi/2
    there, the sinc family's reflection point."""
    from repro.core.particles import ParticleSystem
    from repro.tree.box import Box
    from repro.tree.cellgrid import cell_grid_search

    rng = np.random.default_rng(dim + 10 * periodic)
    n = {1: 40, 2: 90, 3: 160}[dim]
    x = rng.random((n, dim))
    h = (0.9 / n ** (1.0 / dim)) * rng.uniform(1.0, 1.4, size=n)
    x[0] = 0.5
    x[1] = x[0]
    x[1, 0] += h[0] * np.nextafter(1.0, 2.0)
    x[2] = x[0]
    x[2, 0] -= h[0] * np.nextafter(1.0, 0.0)
    box = Box.cube(0.0, 1.0, dim=dim)
    if periodic:
        box = Box(lo=box.lo, hi=box.hi, periodic=np.arange(dim) == 0)
        x[3, 0], x[4, 0] = 0.25 * h[3], 1.0 - 0.25 * h[3]  # across the seam
        if dim > 1:
            x[4, 1:] = x[3, 1:]
    p = ParticleSystem(
        x=x, v=rng.normal(size=(n, dim)), m=rng.uniform(0.5, 1.5, n) / n, h=h
    )
    p.u[:] = 1.0
    nlist = cell_grid_search(x, 2.6 * h, box, mode="symmetric")
    return p, box, nlist


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "seam"])
@pytest.mark.parametrize("kernel_cls, args, dim", _row_kernels())
@compiled_backend
def test_kernel_rows_match_numpy(kernel_cls, args, dim, periodic, backend_name):
    kernel = kernel_cls(*args)
    b = select_backend(backend_name)
    assert b.ops.supports(kernel)
    p, box, nlist = _row_cloud(dim, periodic)
    n = p.n
    i_pair, r = nlist.pair_i(), nlist.pair_geometry(p.x, box)[1]
    q = r / p.h[i_pair]
    assert (q == 0.0).sum() == n and (q >= 2.0).any()
    assert np.abs(q[i_pair == 0] - 1.0).min() < 1e-15
    if periodic:
        assert 4 in nlist.neighbors_of(3)

    def run(backend):
        ps = p.copy()
        out = {"rho_std": compute_density(ps, nlist, kernel, box, backend=backend).copy()}
        out["rho_gen"] = compute_density(
            ps, nlist, kernel, box, volume_elements="generalized",
            backend=backend,
        ).copy()
        ps.p[:] = ps.rho ** 1.4
        ps.cs[:] = np.sqrt(1.4 * ps.p / ps.rho)
        out["omega"] = grad_h_terms(ps, nlist, kernel, box, backend=backend)
        out["c"] = compute_iad_matrices(ps, nlist, kernel, box, backend=backend)
        out["div"], out["curl"] = velocity_divergence_curl(
            ps, nlist, kernel, box, backend=backend
        )
        for tag, options in (
            ("iad", dict(c_matrices=out["c"])),
            ("std", dict(omega=out["omega"], balsara_f=balsara_switch(
                out["div"], out["curl"], ps.cs, ps.h),
                viscosity=ViscosityParams(use_balsara=True))),
        ):
            res = compute_forces(ps, nlist, kernel, box, backend=backend, **options)
            out[f"a_{tag}"], out[f"du_{tag}"] = res.a.copy(), res.du.copy()
            out[f"mu_{tag}"] = res.max_mu
        return out

    ref, got = run(None), run(b)
    for name in ref:
        tol = 1e-9 if name in ("c", "a_iad", "du_iad") else PHASE_TOL
        assert_norm_close(got[name], ref[name], tol, f"{name}/{backend_name}")


@compiled_backend
def test_kernel_rows_exact_values_at_the_ends_of_the_support(backend_name):
    """A self pair is f = 1 with no gradient; a pair at q >= 2 on both
    sides contributes an exact 0.0 to every sum."""
    from repro.core.particles import ParticleSystem
    from repro.kernels.registry import make_kernel
    from repro.tree.neighborlist import NeighborList

    ops = select_backend(backend_name).ops
    x = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])  # q = 2.5 apart
    p = ParticleSystem(
        x=x, v=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        m=np.ones(2), h=np.full(2, 0.1),
    )
    p.rho[:], p.p[:], p.cs[:] = 1.0, 1.0, 1.0
    selves = NeighborList([0, 1, 2], np.array([0, 1], dtype=np.int32))
    others = NeighborList([0, 1, 2], np.array([1, 0], dtype=np.int32))
    for name in ("cubic-spline", "wendland-c2", "wendland-c4", "wendland-c6",
                 "sinc-s5"):
        kernel = make_kernel(name)
        w0 = kernel.sigma(3) / 0.1**3
        rho = ops.density_sums(p.x, p.h, p.m, selves, None, kernel, 0, 2)
        np.testing.assert_allclose(rho, w0, rtol=1e-15)
        assert np.all(ops.density_sums(p.x, p.h, p.m, others, None, kernel, 0, 2) == 0.0)
        assert np.all(ops.density_sums(
            p.x, p.h, p.m, others, None, kernel, 0, 2, dwdh=True) == 0.0)
        c = np.broadcast_to(np.eye(3), (2, 3, 3))
        for nlist in (selves, others):
            for c_matrices in (c, None):
                a, s1, s2, max_mu = ops.forces(
                    x=p.x, v=p.v, h=p.h, m=p.m, rho=p.rho, p_over=p.p,
                    cs=p.cs, nlist=nlist, box=None, kernel=kernel, lo=0, hi=2,
                    c_matrices=c_matrices, balsara_f=None, alpha=1.0,
                    beta=2.0, eta2=0.01,
                )
                assert np.all(a == 0.0) and np.all(s1 == 0.0), name
                assert np.all(s2 == 0.0) and max_mu == 0.0, name
            div, curl = ops.div_curl_sums(p.x, p.v, p.h, p.m, nlist, None, kernel, 0, 2)
            assert np.all(div == 0.0) and np.all(curl == 0.0), name


@compiled_backend
def test_unsupported_kernel_falls_back_per_phase(phase_state, backend_name):
    """A subclassed (overridden-shape) kernel must take the numpy path."""
    from repro.kernels.cubic_spline import CubicSplineKernel

    sim = phase_state
    p, nlist, box = sim.particles, sim._nlist, sim.box

    class TweakedKernel(CubicSplineKernel):
        pass

    kernel = TweakedKernel()
    b = select_backend(backend_name)
    assert not b.ops.supports(kernel)
    ref = compute_density(p, nlist, kernel, box, rows=(0, p.n))
    got = compute_density(p, nlist, kernel, box, rows=(0, p.n), backend=b)
    np.testing.assert_array_equal(got, ref)


# --------------------------------------------------------------------------
# end-to-end step parity + scenario conformance
# --------------------------------------------------------------------------


def _run_patch(backend_name, steps=5):
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=10, layers=10)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(backend=backend_name)),
    )
    try:
        assert sim.backend.name == backend_name
        for _ in range(steps):
            sim.step()
        return {f: getattr(sim.particles, f).copy() for f in FIELDS}
    finally:
        sim.close()


@compiled_backend
def test_multi_step_parity_h_bitwise(backend_name):
    """5 hot-path steps: h (the discrete neighbour iteration) must be
    bitwise identical; continuous fields within roundoff of the norm."""
    ref = _run_patch("numpy")
    got = _run_patch(backend_name)
    assert np.array_equal(got["h"], ref["h"]), "h trajectory diverged"
    for field in FIELDS:
        assert_norm_close(got[field], ref[field], 1e-10,
                          f"step-parity {field}/{backend_name}")


SCENARIOS = [sc.name for sc in all_scenarios()]


def _run_scenario(name, exec_config, engine_off=False):
    scenario = get_scenario(name)
    sim = scenario.make_simulation(
        test=True, run_config=RunConfig(exec=exec_config)
    )
    if engine_off:
        # degrade_to_serial() drops the threads and the compiled ops;
        # hand the ops back so the serial phases run *through the
        # backend*.
        backend = sim.backend
        sim.degrade_to_serial()
        sim.backend = backend
    try:
        sim.run(n_steps=scenario.golden_steps)
        return {f: getattr(sim.particles, f).copy() for f in FIELDS}
    finally:
        sim.close()


_scenario_numpy_cache: dict = {}


def _scenario_baseline(name):
    if name not in _scenario_numpy_cache:
        _scenario_numpy_cache[name] = _run_scenario(
            name, ExecConfig(backend="numpy")
        )
    return _scenario_numpy_cache[name]


@pytest.mark.parametrize("name", SCENARIOS)
@compiled_backend
def test_scenario_conformance(name, backend_name):
    ref = _scenario_baseline(name)
    got = _run_scenario(name, ExecConfig(backend=backend_name))
    for field in FIELDS:
        assert_norm_close(got[field], ref[field], GOLDEN_RTOL,
                          f"{name}.{field}/{backend_name}")


@pytest.mark.parametrize("name", ["square-patch", "sod"])
@compiled_backend
def test_scenario_conformance_engine_off(name, backend_name):
    ref = _scenario_baseline(name)
    got = _run_scenario(
        name, ExecConfig(backend=backend_name), engine_off=True
    )
    for field in FIELDS:
        assert_norm_close(got[field], ref[field], GOLDEN_RTOL,
                          f"{name}.{field}/{backend_name}[engine-off]")


@pytest.mark.parametrize("workers", [1, 2])
@compiled_backend
def test_scenario_conformance_worker_pool(workers, backend_name):
    """Workers resolve the shipped backend name per process; the fanned
    -out result must match the serial numpy reference."""
    name = "square-patch"
    ref = _scenario_baseline(name)
    got = _run_scenario(
        name, ExecConfig(backend=backend_name, workers=workers)
    )
    for field in FIELDS:
        assert_norm_close(got[field], ref[field], GOLDEN_RTOL,
                          f"{name}.{field}/{backend_name}[workers={workers}]")


@compiled_backend
def test_compiled_evrard_holds_golden_and_conservation(backend_name):
    """Self-gravity on the compiled path: the committed (numpy) golden
    at ``GOLDEN_RTOL``, the scenario's conservation promises, and a
    report that says which gravity rendering ran."""
    scenario = get_scenario("evrard")
    sim = scenario.make_simulation(
        test=True, run_config=RunConfig(exec=ExecConfig(backend=backend_name))
    )
    try:
        sim.run(n_steps=scenario.golden_steps)
        record = record_run(sim, case="scenario:evrard")
        drift = sim.conservation_drift()
        report = sim.report()
    finally:
        sim.close()
    failures = compare_records(record, load_golden(golden_path("evrard")))
    assert not failures, "evrard golden mismatch:\n" + "\n".join(failures)
    for quantity, bound in scenario.invariants.items():
        assert drift[quantity] <= bound, f"{quantity} drift {drift[quantity]:.3e}"
    # Two rate evaluations on the first step, one on each later step.
    assert report.gravity["calls"] == scenario.golden_steps + 1
    assert report.gravity["path"] == backend_name
    assert report.gravity["p2p_per_step"] > 0
    assert "gravity: calls=" in report.summary()


# --------------------------------------------------------------------------
# pure-reorganization proof + provenance
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["square-patch", "sod"])
def test_numpy_backend_reproduces_golden_masters(name):
    """Explicitly requesting backend='numpy' must still reproduce the
    pre-backend committed goldens: the refactor moved code behind a
    dispatch seam without changing a single operation."""
    scenario = get_scenario(name)
    sim = scenario.make_simulation(
        test=True, run_config=RunConfig(exec=ExecConfig(backend="numpy"))
    )
    try:
        sim.run(n_steps=scenario.golden_steps)
        record = record_run(sim, case=f"scenario:{name}")
    finally:
        sim.close()
    failures = compare_records(record, load_golden(golden_path(name)))
    assert not failures, f"{name} golden mismatch:\n" + "\n".join(failures)


def test_report_carries_backend_provenance():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=6, layers=3))
    sim = Simulation(
        particles, box, eos,
        run_config=RunConfig(exec=ExecConfig(backend="auto")),
    )
    try:
        sim.step()
        rep = sim.report()
    finally:
        sim.close()
    assert rep.backend is not None
    assert rep.backend["name"] == sim.backend.name
    assert rep.backend["requested"] == "auto"
    assert "version" in rep.backend
    assert f"backend: {sim.backend.name}" in rep.summary()


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


def test_cli_unknown_backend_exits_2():
    from repro.__main__ import main

    for name in ("fortran", "numba"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "sod", "--n", "60", "--steps", "1",
                  "--backend", name])
        assert exc.value.code == 2


def test_cli_backend_flag_and_json(capsys):
    import json

    from repro.__main__ import main

    rc = main(["run", "sod", "--n", "60", "--steps", "2",
               "--backend", "numpy", "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "backend: numpy (requested numpy" in captured.err
    payload = json.loads(captured.out)  # the document alone on stdout
    assert payload["backend"]["name"] == "numpy"


@compiled_backend
def test_cli_compiled_backend_runs(capsys, backend_name):
    from repro.__main__ import main

    rc = main(["run", "square-patch", "--side", "8", "--layers", "4",
               "--steps", "1", "--backend", backend_name])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"backend: {backend_name} (requested {backend_name}" in out
