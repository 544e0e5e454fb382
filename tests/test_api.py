"""The redesigned public surface: repro.api, pruned exports, removed names."""

import pytest

import repro
from repro import api
from repro.service.spec import SpecError

TINY = dict(scenario="sod", n_steps=3, overrides={"n_target": 60})


@pytest.fixture
def private_service():
    """A fresh in-memory service wired in as the module-level one."""
    api.shutdown_service()
    api.configure_service(api.ServiceConfig(isolation="inline"))
    yield api.service()
    api.shutdown_service()


# --- submit / run equivalence --------------------------------------------


def test_submit_and_sync_run_produce_identical_outcomes(private_service):
    spec = api.JobSpec(**TINY)
    via_service = api.submit(spec).result(timeout=300)
    via_sync = api.run(spec)
    assert via_sync.result_digest == via_service.result_digest
    assert via_sync.digests == via_service.digests
    assert via_sync.drift == via_service.drift
    assert via_sync.steps == via_service.steps


def test_sync_run_matches_classic_driver_loop(private_service):
    """api.run and a hand-built Simulation agree bit-for-bit: the sync
    wrapper is the same spec -> simulation path, not a reimplementation."""
    from repro.scenarios import get_scenario
    from repro.service.runner import field_digests

    outcome = api.run(api.JobSpec(**TINY))

    scenario = get_scenario("sod")
    sim = scenario.make_simulation(
        sim_config=api.JobSpec(**TINY).sim_config(scenario),
        run_config=api.JobSpec(**TINY).run_config(scenario),
        n_target=60,
    )
    sim.run(n_steps=3)
    try:
        assert field_digests(sim.particles) == outcome.digests
    finally:
        sim.close()


def test_submit_accepts_scenario_name_shorthand(private_service):
    handle = api.submit("sod", n_steps=3, overrides={"n_target": 60})
    assert handle.result(timeout=300).scenario == "sod"


def test_submit_rejects_bad_spec(private_service):
    with pytest.raises(SpecError):
        api.submit(api.JobSpec(scenario="nosuch"))


def test_configure_after_start_refused(private_service):
    with pytest.raises(RuntimeError):
        api.configure_service(api.ServiceConfig())


# --- what a run loads ----------------------------------------------------

_RUN_EVERY_SCENARIO = """
import json, sys, warnings
from repro import api
from repro.backend import select_backend
from repro.scenarios import scenario_names

loaded_by_import = sorted(sys.modules)
backends = ["numpy"]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # no compiler: numpy alone is the run path
    if select_backend("cffi").name == "cffi":
        backends.append("cffi")
ran = [
    [name, backend, api.run(name, n_steps=1, test=True, backend=backend).steps]
    for name in scenario_names() for backend in backends
]
print(json.dumps({"import": loaded_by_import, "run": sorted(sys.modules),
                  "ran": ran}))
"""


def test_run_path_never_loads_scipy(fresh_interpreter):
    """``import repro.api`` and one step of every registered scenario (numpy,
    and cffi where it builds) leave scipy — a dependency of the analytic
    gates only — and the test/plot toolchain out of the process."""
    reply = fresh_interpreter(_RUN_EVERY_SCENARIO)
    assert len({name for name, _, _ in reply["ran"]}) == 8
    assert all(steps == 1 for _, _, steps in reply["ran"])
    for stage in ("import", "run"):
        heavy = [
            m for m in reply[stage]
            if m.split(".")[0] in ("scipy", "hypothesis", "matplotlib")
        ]
        assert heavy == [], f"after {stage}: {heavy[:5]}"


_ONE_PATCH_STEP = """
import json, sys
from repro import api

outcome = api.run("square-patch", n_steps=1, backend="cffi")
print(json.dumps({"backend": outcome.report["backend"]["name"],
                  "steps": outcome.steps, "loaded": sorted(sys.modules)}))
"""

#: What one compiled square-patch step never needs: the C parser (the
#: backend loads its pre-parsed FFI module), the service's job manager
#: and its stdlib (processes, sqlite, sockets), the exact solutions and
#: goldens, gravity, the cell grid and every other scenario's ICs.
_OFF_THE_RUN_PATH = (
    "pycparser", "multiprocessing", "sqlite3",
    "repro.service.manager", "repro.service.store", "repro.service.queue",
    "repro.service.events", "repro.service.worker",
    "repro.scenarios.analytic", "repro.scenarios.golden",
    "repro.gravity", "repro.tree.cellgrid",
)


def test_one_compiled_patch_step_imports_only_its_own_path(fresh_interpreter):
    from repro.backend import available_backends

    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    # The cache the child reads is warm now (library and FFI module).
    reply = fresh_interpreter(_ONE_PATCH_STEP)
    assert (reply["backend"], reply["steps"]) == ("cffi", 1)
    loaded = set(reply["loaded"])
    assert loaded.isdisjoint(_OFF_THE_RUN_PATH), sorted(
        loaded.intersection(_OFF_THE_RUN_PATH)
    )
    ics = {m for m in loaded if m.startswith("repro.ics.")}
    assert ics <= {"repro.ics.square_patch", "repro.ics.lattice"}, sorted(ics)


_SERVE_EACH_ISOLATION = """
import json, sys, tempfile
import repro.api
from repro.api import JobSpec, LocalService, ServiceConfig

served = []
for isolation in ("inline", "process"):
    with LocalService(ServiceConfig(
        isolation=isolation, jobs_dir=tempfile.mkdtemp(),
    )) as svc:
        handle = svc.submit(JobSpec("sod", n_steps=2, overrides={"n_target": 60}))
        served.append([isolation, handle.result(timeout=300).steps,
                       [e.type for e in handle.events()][-1]])
print(json.dumps({"served": served, "asyncio": "asyncio" in sys.modules}))
"""


def test_service_runs_without_an_event_loop(fresh_interpreter):
    """A job through ``LocalService`` under either isolation, start to
    close, never imports asyncio: slot threads are the one model."""
    reply = fresh_interpreter(_SERVE_EACH_ISOLATION)
    assert reply["served"] == [["inline", 2, "done"], ["process", 2, "done"]]
    assert reply["asyncio"] is False


# --- pruned package exports ----------------------------------------------


def test_package_all_is_the_redesigned_surface():
    assert "api" in repro.__all__
    assert "JobSpec" in repro.__all__
    assert "Simulation" in repro.__all__
    # The helper families are no longer advertised...
    for pruned in ("Tracer", "Octree", "make_square_patch", "PopMetrics"):
        assert pruned not in repro.__all__
        # ...but stay importable for compatibility.
        assert getattr(repro, pruned) is not None


def test_lazy_api_exports_resolve():
    assert repro.JobSpec is api.JobSpec
    assert repro.submit is api.submit
    assert repro.api is api
    with pytest.raises(AttributeError):
        repro.does_not_exist


# --- names removed in 2.0.0 to 13.0.0 stay removed ------------------------


def test_removed_surface_fails_closed():
    """The deprecated driver surface, ``repro.compat``, the ``numba``
    backend, the ``pair_engine`` switch, (3.0.0) the process pool with
    its supervisor and chaos knobs, (4.0.0) the epoch/token protocol,
    ``CffiImpl`` and the ``neighbor_search`` knob, (5.0.0) the
    compiled path's stored per-pair products, (6.0.0) the numpy pair
    engine, (8.0.0) the online autotuner, (10.0.0) the second per-step
    error detector and eight guard knobs, (11.0.0) the h iteration's
    ``adapted`` flag and global ``converged`` count, (12.0.0) the
    Verlet cache's on/off and skin knobs, (13.0.0) the slices-per-
    thread knob, the driver's rank and tracer inputs, the metrics
    registry and the Amdahl fit, (14.0.0) ``compute_forces``' own
    sub-passes, (15.0.0) ``Simulation.configure`` and (19.0.0) the
    second resume path, five checkpoint knobs and the second bit-flip
    injector are gone: old
    spellings are typed errors
    at the boundary, never a silent default."""
    import importlib

    from repro.cli import main
    from repro.core.config import ExecConfig, RunConfig, SimulationConfig
    from repro.ics import SquarePatchConfig, make_square_patch
    from repro.tree.pairs import Pairs

    for module in ("repro.compat", "repro.parallel", "repro.sph.pair_engine"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    with pytest.raises(ImportError):
        from repro.resilience import ChaosPolicy  # noqa: F401
    particles, box, eos = make_square_patch(SquarePatchConfig(side=6, layers=3))
    with pytest.raises(TypeError):
        repro.Simulation(particles, box, eos, exec_config=ExecConfig())
    for removed in (
        "pair_engine", "supervise", "supervisor", "verify_outputs", "chaos",
        "start_method", "arena_capacity",
    ):
        with pytest.raises(TypeError):
            ExecConfig(**{removed: True})
    with pytest.raises(SpecError, match="pair_engine"):
        api.JobSpec.from_dict({"scenario": "sod", "pair_engine": True})
    with pytest.raises(SpecError, match="unknown backend"):
        api.JobSpec(scenario="sod", backend="numba")
    # The online autotuner is gone: a stale client gets a typed error,
    # never a silently untuned run.
    with pytest.raises(SpecError, match="autotune"):
        api.JobSpec.from_dict({"scenario": "sod", "autotune": True})
    with pytest.raises(TypeError):
        RunConfig(tuning=object())
    with pytest.raises(ImportError):
        importlib.import_module("repro.tuning")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "sod", "--autotune"])
    assert exit_info.value.code == 2
    # 4.0.0: per-pair state has one owner with a lexical lifetime.
    with pytest.raises(AttributeError):
        particles.bump_epoch("x")
    with pytest.raises(ImportError):
        from repro.sph import new_pair_token  # noqa: F401
    assert not hasattr(Pairs, "set_tokens")
    with pytest.raises(ImportError):
        from repro.backend.cffi_backend import CffiImpl  # noqa: F401
    with pytest.raises(TypeError):
        SimulationConfig(neighbor_search="tree-walk")
    # 5.0.0: the compiled path keeps the neighbour list and nothing else.
    from repro.backend import csrc
    from repro.backend.compiled import CompiledOps

    with pytest.raises(ImportError):
        from repro.backend.compiled import SupportList  # noqa: F401
    for removed in (
        "pair_radii", "counts_from_radii", "normalizations", "pair_products",
        "rowsum", "iad_tau", "tau_inverse",
    ):
        assert not hasattr(CompiledOps, removed), removed
    for removed in ("radii", "held", "hold"):
        assert not hasattr(Pairs, removed), removed
    for removed in (
        "rp_radii", "rp_counts_r", "rp_pair_kernel", "rp_rowsum", "rp_iad_tau",
        "rp_tau_inv", "rp_filter_count", "rp_filter_fill",
    ):
        assert removed + "(" not in csrc.CDEF, removed
    # 6.0.0: one pair record per rate evaluation (``repro.tree.pairs``)
    # instead of a pair engine with an arena, a memo protocol and counters.
    import dataclasses
    import inspect

    from repro import sph
    from repro.core.simulation import StepStats
    from repro.gradients import compute_iad_matrices
    from repro.kernels.base import Kernel
    from repro.observability.report import RunReport
    from repro.sph import (
        adapt_smoothing_lengths,
        compute_density,
        compute_forces,
        grad_h_terms,
        velocity_divergence_curl,
    )
    from repro.tree.neighborlist import NeighborList

    for removed in ("PairContext", "ScratchArena", "PairEngineStats"):
        assert not hasattr(sph, removed), removed
    with pytest.raises(ImportError):
        from repro.observability import format_pair_engine  # noqa: F401
    assert "pair_engine" not in {f.name for f in dataclasses.fields(RunReport)}
    assert not [
        f.name for f in dataclasses.fields(StepStats) if f.name.startswith("pair_")
    ]
    assert not hasattr(Kernel, "value_and_gradient")
    assert not hasattr(NeighborList, "reduce_into")
    for phase in (
        compute_density, grad_h_terms, compute_iad_matrices,
        velocity_divergence_curl, compute_forces, adapt_smoothing_lengths,
    ):
        assert "ctx" not in inspect.signature(phase).parameters, phase.__name__
        with pytest.raises(TypeError):
            phase(None, None, None, ctx=None)
    # 10.0.0: the step guard's health check is the one per-step detector
    # (no error_detection knob, no ABFT module), and GuardConfig keeps
    # only the scenario's drift bounds.  A stale client's spec is
    # refused before it is enqueued.
    from repro.resilience.guard import GuardConfig

    with pytest.raises(SpecError, match="error_detection"):
        api.JobSpec.from_dict({"scenario": "sod", "error_detection": True})
    with pytest.raises(TypeError):
        SimulationConfig(error_detection=True)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "sod", "--error-detection"])
    assert exit_info.value.code == 2
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.resilience.abft")
    assert "sdc" not in {f.name for f in dataclasses.fields(RunReport)}
    assert [f.name for f in dataclasses.fields(GuardConfig)] == [
        "drift_tolerances"
    ]
    # 11.0.0: the h iteration stops per particle and every search is
    # padded: no ``adapted`` flag, no global ``converged`` count.
    from repro.tree.neighborlist import VerletCacheStats

    assert "adapted" not in inspect.signature(adapt_smoothing_lengths).parameters
    assert not {"converged", "max_count_error"} & {
        f.name for f in dataclasses.fields(VerletCacheStats)
    }
    # 12.0.0: the Verlet cache is the one neighbour path (no on/off or
    # skin knob) and a checkpoint holds particle state only.
    for removed in ("neighbor_cache", "cache_skin"):
        with pytest.raises(SpecError, match=removed):
            api.JobSpec.from_dict({"scenario": "sod", removed: True})
        with pytest.raises(TypeError):
            ExecConfig(**{removed: True})
    # 13.0.0: one slice per phase thread, the driver owns its tracer
    # and spans sit on rank 0, and a report's sections are its only
    # copy of the counters.
    with pytest.raises(TypeError):
        ExecConfig(chunks_per_worker=2)
    with pytest.raises(SpecError, match="chunks_per_worker"):
        api.JobSpec.from_dict({"scenario": "sod", "chunks_per_worker": 1})
    from repro.observability import Tracer

    with pytest.raises(TypeError):
        repro.Simulation(particles, box, eos, rank=0)
    with pytest.raises(TypeError):
        repro.Simulation(particles, box, eos, tracer=Tracer())
    for module in ("repro.runtime.amdahl", "repro.observability.registry"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert "counters" not in {f.name for f in dataclasses.fields(RunReport)}
    assert [f.name for f in dataclasses.fields(ExecConfig)] == [
        "workers", "backend"
    ]
    from repro.resilience.checkpoint import Checkpoint

    sim = repro.Simulation(particles, box, eos)
    sim.run(n_steps=1)
    assert sim.report().neighbor_cache["builds"] >= 1
    extras = Checkpoint.of_simulation(sim).extras
    assert not [k for k in extras if k.startswith("ncache_")]
    # 14.0.0: the phase executor alone runs the sub-passes before the
    # force loop; compute_forces reads their results and computes none.
    from repro.sph.viscosity import ViscosityParams
    from repro.tree.cellgrid import cell_grid_search

    p = sim.particles
    nl = cell_grid_search(p.x, 2.0 * p.h, box, mode="symmetric")
    for removed in ("gradients", "grad_h"):
        assert removed not in inspect.signature(compute_forces).parameters
        with pytest.raises(TypeError):
            compute_forces(p, nl, sim.kernel, box, **{removed: False})
    with pytest.raises(ValueError, match="balsara_f"):
        compute_forces(
            p, nl, sim.kernel, box, viscosity=ViscosityParams(use_balsara=True)
        )
    # 15.0.0: a driver is wired once, from ``run_config=`` at
    # construction; there is no second wiring path.
    assert not hasattr(repro.Simulation, "configure")
    with pytest.raises(AttributeError):
        sim.configure(exec=ExecConfig(workers=2))
    # 19.0.0: ``ResilienceConfig`` has two fields and ``run()`` never
    # resumes; bit flips are ``NumericalFault(kind="bitflip")``.
    from repro.resilience import ResilienceConfig

    for removed in ("autoresume", "keep", "mtbf", "io_retries", "io_backoff"):
        with pytest.raises(TypeError):
            ResilienceConfig(**{removed: 1})
    with pytest.raises(ImportError):
        from repro.resilience import inject_bitflip  # noqa: F401
    with pytest.raises(ImportError):
        from repro.resilience.failures import SdcInjector  # noqa: F401

