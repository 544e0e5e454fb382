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
    radii = b.ops.pair_radii(p.x, nlist, box)
    counts = b.ops.counts_from_radii(radii, p.h, nlist, 2.0)
    assert np.array_equal(counts, counts_ref)

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
        kwargs = dict(gradients=gradients, viscosity=visc, rows=rows,
                      omega=omega, balsara_f=bf)
        if gradients == "iad":
            kwargs["c_matrices"] = cm_ref
        f_ref = compute_forces(p, nlist, kernel, box, **kwargs)
        f = compute_forces(p, nlist, kernel, box, backend=b, **kwargs)
        tag = f"forces[{gradients}]/{backend_name}"
        assert_norm_close(f.a, f_ref.a, PHASE_TOL, f"{tag}.a")
        assert_norm_close(f.du, f_ref.du, PHASE_TOL, f"{tag}.du")
        assert_norm_close(f.max_mu, f_ref.max_mu, PHASE_TOL, f"{tag}.max_mu")


def _pair_radii_numpy(x, nlist, box):
    i = np.repeat(np.arange(nlist.n), np.diff(nlist.offsets))
    dx = x[i] - x[nlist.indices]
    if box is not None:
        dx = box.min_image(dx)
    return np.sqrt(np.einsum("kd,kd->k", dx, dx))


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
        run_config=RunConfig(
            exec=ExecConfig(neighbor_cache=True, backend=backend_name)
        ),
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
        # degrade_to_serial() is the driver's way to drop the pair
        # context; hand the compiled ops back so every phase takes its
        # ephemeral ``ctx=None`` route *through the backend*.
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
