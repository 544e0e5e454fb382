"""The service layer: dedup cache, queue, events, recovery, hashing."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.service import (
    FairShareQueue,
    JobSpec,
    LocalService,
    QueueFullError,
    ResultStore,
    ServiceConfig,
    ServiceManager,
    SpecError,
    execute_spec,
)
from repro.service.manager import (
    JobCancelledError,
    JobFailedError,
    JobState,
    _Job,
)
from repro.service.events import JobEventLog

TINY = dict(scenario="sod", n_steps=3, overrides={"n_target": 60})


def tiny_spec(**kwargs) -> JobSpec:
    merged = dict(TINY)
    merged.update(kwargs)
    return JobSpec(**merged)


def inline_service(**kwargs) -> LocalService:
    defaults = dict(isolation="inline", max_workers=2)
    defaults.update(kwargs)
    return LocalService(ServiceConfig(**defaults))


# --- JobSpec canonicalization & hashing ----------------------------------


def test_content_hash_is_stable_for_equal_specs():
    a = tiny_spec().content_hash(code_version="pinned")
    b = tiny_spec().content_hash(code_version="pinned")
    assert a == b


def test_content_hash_covers_result_affecting_knobs():
    base = tiny_spec().content_hash(code_version="pinned")
    for variation in (
        tiny_spec(n_steps=4),
        tiny_spec(overrides={"n_target": 80}),
        tiny_spec(preset="sphynx"),
        tiny_spec(guard=True),
        tiny_spec(chaos="nan:rho@2"),
    ):
        assert variation.content_hash(code_version="pinned") != base


def test_content_hash_ignores_execution_neutral_knobs():
    base = tiny_spec().content_hash(code_version="pinned")
    assert tiny_spec(workers=2).content_hash(code_version="pinned") == base
    assert tiny_spec(kill_at_step=1).content_hash(code_version="pinned") == base


def test_content_hash_changes_with_code_version(monkeypatch):
    import repro.observability.ledger as ledger_mod

    monkeypatch.setattr(ledger_mod, "code_version", lambda: "v-one")
    first = tiny_spec().content_hash()
    monkeypatch.setattr(ledger_mod, "code_version", lambda: "v-two")
    assert tiny_spec().content_hash() != first


def test_content_hash_stable_across_processes():
    """The cache key must not depend on process state (hash seeds, dict
    order): a fresh interpreter derives the same hash."""
    spec = tiny_spec()
    program = (
        "from repro.service import JobSpec;"
        f"print(JobSpec(**{json.dumps(dict(TINY))}).content_hash("
        "code_version='pinned'))"
    )
    hashes = {
        subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for _ in range(2)
    }
    assert hashes == {spec.content_hash(code_version="pinned")}


def test_spec_rejects_unknown_scenario_and_override():
    with pytest.raises(SpecError):
        JobSpec(scenario="nosuch").resolve()
    with pytest.raises(SpecError):
        JobSpec(scenario="sod", overrides={"bogus_knob": 1}).resolve()
    with pytest.raises(SpecError):
        JobSpec(scenario="sod", chaos="not-a-chaos-spec").resolve()


def test_spec_rejects_malformed_exec_knobs_before_enqueue():
    """The execution knobs are checked by the ``ExecConfig`` the job
    would run with, at construction — not inside the job."""
    with pytest.raises(SpecError, match="cache_skin"):
        JobSpec("sod", cache_skin=2.0)
    with pytest.raises(SpecError, match="chunks_per_worker"):
        JobSpec("sod", chunks_per_worker=0)
    with pytest.raises(SpecError, match="workers"):
        JobSpec.from_dict({"scenario": "sod", "workers": -1})
    assert tiny_spec(workers=2, chunks_per_worker=3).exec_config().workers == 2


# --- ResultStore ----------------------------------------------------------


def test_store_roundtrip_and_first_writer_wins(tmp_path):
    with ResultStore(tmp_path / "results.db") as store:
        outcome = {
            "run_id": "r1", "scenario": "sod", "code_version": "v",
            "steps": 3, "result_digest": "d1",
        }
        assert store.put("hash-a", outcome)
        assert not store.put("hash-a", {**outcome, "run_id": "r2"})
        got = store.get("hash-a")
        assert got.run_id == "r1"
        assert got.outcome["result_digest"] == "d1"
        assert store.get("hash-missing") is None
        assert len(store) == 1


def test_store_survives_reopen(tmp_path):
    path = tmp_path / "results.db"
    with ResultStore(path) as store:
        store.put("h", {"run_id": "r", "scenario": "s", "code_version": "v",
                        "steps": 1, "result_digest": "d"})
    with ResultStore(path) as store:
        assert store.get("h").run_id == "r"


# --- FairShareQueue -------------------------------------------------------


def test_queue_backpressure_rejects_with_retry_after():
    async def scenario():
        q = FairShareQueue(capacity=2)
        q.put_nowait("a", tenant="t1")
        q.put_nowait("b", tenant="t2")
        with pytest.raises(QueueFullError) as exc:
            q.put_nowait("c", tenant="t1", retry_after=2.5)
        assert exc.value.retry_after == 2.5
        assert exc.value.depth == 2

    asyncio.run(scenario())


def test_queue_round_robin_is_fair_across_tenants():
    async def scenario():
        q = FairShareQueue(capacity=10)
        for i in range(3):
            q.put_nowait(f"hog-{i}", tenant="hog")
        q.put_nowait("small-0", tenant="small")
        order = [q.get_nowait() for _ in range(4)]
        # The single-job tenant is served second, not after the hog drains.
        assert order.index("small-0") == 1

    asyncio.run(scenario())


# --- Dedup / coalescing / backpressure through the manager ----------------


def test_same_spec_twice_runs_once_and_serves_cache():
    svc = inline_service()
    try:
        first = svc.submit(tiny_spec()).result(timeout=300)
        second = svc.submit(tiny_spec()).result(timeout=60)
        assert first.cached is False
        assert second.cached is True
        assert second.result_digest == first.result_digest
        assert second.digests == first.digests
        assert second.run_id == first.run_id  # the originating run's id
        stats = svc.stats()
        assert stats["executed"] == 1
        assert stats["cache_hits"] == 1
    finally:
        svc.close()


def test_cache_hit_is_bit_identical_to_stored_record():
    svc = inline_service()
    try:
        first = svc.submit(tiny_spec()).result(timeout=300)
        stored = svc.manager.store.get(tiny_spec().content_hash())
        assert stored is not None
        # The store's raw JSON round-trips to exactly the outcome served.
        assert json.loads(stored.raw)["report"] == first.report
        assert stored.result_digest == first.result_digest
    finally:
        svc.close()


def test_code_version_change_invalidates_cache(monkeypatch):
    import repro.observability.ledger as ledger_mod

    real_version = ledger_mod.code_version
    svc = inline_service()
    try:
        svc.submit(tiny_spec()).result(timeout=300)
        monkeypatch.setattr(
            ledger_mod, "code_version", lambda: real_version() + "-rebuilt"
        )
        second = svc.submit(tiny_spec()).result(timeout=300)
        assert second.cached is False  # new code version -> new cache line
        assert svc.stats()["executed"] == 2
    finally:
        svc.close()


def test_identical_inflight_submissions_coalesce():
    async def scenario():
        manager = ServiceManager(ServiceConfig(isolation="inline"))
        # No workers started: both submissions stay queued, so the second
        # deterministically coalesces onto the first's job.
        h1 = await manager.submit(tiny_spec())
        h2 = await manager.submit(tiny_spec())
        assert h1.job_id == h2.job_id
        assert manager.stats["coalesced"] == 1
        await manager.close()

    asyncio.run(scenario())


def test_manager_backpressure_rejects_beyond_capacity():
    async def scenario():
        manager = ServiceManager(
            ServiceConfig(isolation="inline", queue_capacity=2)
        )
        await manager.submit(tiny_spec(n_steps=3))
        await manager.submit(tiny_spec(n_steps=4))
        with pytest.raises(QueueFullError) as exc:
            await manager.submit(tiny_spec(n_steps=5))
        assert exc.value.retry_after > 0
        assert manager.stats["rejected"] == 1
        await manager.close()

    asyncio.run(scenario())


def test_malformed_spec_raises_before_any_bookkeeping():
    async def scenario():
        manager = ServiceManager(ServiceConfig(isolation="inline"))
        for bad in (
            JobSpec(scenario="nosuch"),
            JobSpec(scenario="sod", overrides={"bogus_knob": 1}),
            JobSpec(scenario="sod", chaos="not-a-chaos-spec"),
        ):
            with pytest.raises(SpecError):
                await manager.submit(bad)
        assert manager.stats["submitted"] == 0
        assert manager.jobs == {}
        await manager.close()

    asyncio.run(scenario())


def _history(states):
    jobs = {}
    for n, state in enumerate(states, 1):
        job_id = f"job-{n:05d}"
        jobs[job_id] = _Job(
            job_id=job_id, spec=tiny_spec(), spec_hash=str(n),
            tenant="anon", log=JobEventLog(job_id), state=state,
        )
    return jobs


def test_trim_history_evicts_the_oldest_terminal_jobs_only():
    S = JobState
    states = [S.DONE, S.RUNNING, S.FAILED, S.QUEUED, S.CANCELLED, S.DONE,
              S.RECOVERED, S.DONE]
    manager = ServiceManager(ServiceConfig(isolation="inline", history_limit=5))
    manager.jobs = _history(states)
    manager._trim_history()
    # Three over the limit: the first three terminal jobs, in age order.
    assert list(manager.jobs) == [
        "job-00002", "job-00004", "job-00006", "job-00007", "job-00008",
    ]
    # Fewer terminal jobs than the excess: all of them go, no live one.
    manager.jobs = _history(states)
    manager.config = ServiceConfig(isolation="inline", history_limit=1)
    manager._trim_history()
    assert [j.state for j in manager.jobs.values()] == [
        S.RUNNING, S.QUEUED, S.RECOVERED,
    ]
    manager.store.close()


def test_finished_handle_answers_without_a_loop_round_trip(monkeypatch):
    svc = inline_service()
    try:
        ran = svc.submit(tiny_spec())
        first = ran.result(timeout=300)
        hit = svc.submit(tiny_spec())
        loop_calls = []
        for name in ("_call", "_spawn"):
            real = getattr(LocalService, name)
            monkeypatch.setattr(
                LocalService, name,
                lambda self, coro, *a, _real=real, **kw: (
                    loop_calls.append(coro) or _real(self, coro, *a, **kw)
                ),
            )
        assert hit.result() is hit.result()
        assert hit.result().cached
        assert hit.result().result_digest == first.result_digest
        assert ran.result() is first
        events = {h.job_id: list(h.events()) for h in (ran, hit)}
        assert loop_calls == []

        async def replay(handle):
            return [e async for e in handle.events()]

        for h in (ran, hit):
            assert events[h.job_id] == svc._call(replay(h._handle))
        assert [e.type for e in events[hit.job_id]] == ["queued", "done"]
        assert events[ran.job_id][-1].type == "done"
    finally:
        svc.close()


def test_loop_call_finishes_coroutines_that_suspend():
    """``_call`` steps a coroutine in the loop's wake-up callback; one
    that suspends is finished under a Task with the same outcome."""
    import concurrent.futures

    async def value_after(n):
        for _ in range(n):
            await asyncio.sleep(0)
        await asyncio.sleep(0.01)
        return n

    async def raise_after(n, exc):
        await value_after(n)
        raise exc

    svc = inline_service()
    try:
        assert svc._call(value_after(0)) == 0
        assert svc._call(value_after(3)) == 3
        with pytest.raises(KeyError, match="boom"):
            svc._call(raise_after(2, KeyError("boom")))
        with pytest.raises(concurrent.futures.CancelledError):
            svc._call(raise_after(1, asyncio.CancelledError()))
    finally:
        svc.close()


def test_failed_and_cancelled_jobs_raise_through_the_loop(monkeypatch):
    import threading

    import repro.service.manager as manager_mod

    gate = threading.Event()

    def stuck_then_fail(spec, **kwargs):
        gate.wait(timeout=60)
        raise RuntimeError("boom")

    monkeypatch.setattr(manager_mod, "execute_spec", stuck_then_fail)
    svc = inline_service(max_workers=1)
    try:
        running = svc.submit(tiny_spec())
        queued = svc.submit(tiny_spec(n_steps=4))
        assert queued.cancel()
        with pytest.raises(JobCancelledError, match=queued.job_id):
            queued.result(timeout=60)
        gate.set()
        with pytest.raises(JobFailedError, match="RuntimeError: boom"):
            running.result(timeout=60)
        # Terminal now: a second read raises the same errors again.
        with pytest.raises(JobFailedError, match="boom"):
            running.result(timeout=60)
        with pytest.raises(JobCancelledError):
            queued.result(timeout=60)
        assert [e.type for e in queued.events()] == ["queued", "cancelled"]
        assert running.status()["state"] == JobState.FAILED
    finally:
        gate.set()
        svc.close()


# --- Event fan-out --------------------------------------------------------


def test_subscribers_see_identical_ordered_event_streams():
    async def scenario():
        manager = ServiceManager(ServiceConfig(isolation="inline"))
        await manager.start()
        handle = await manager.submit(tiny_spec())

        async def collect():
            return [
                (e.seq, e.type) async for e in handle.events()
            ]

        early, late = await asyncio.gather(collect(), collect())
        assert early == late
        types = [t for _, t in early]
        assert types[0] == "queued"
        assert types[1] == "started"
        assert types[-1] == "done"
        assert types.count("step") == 3  # one per simulated step
        seqs = [s for s, _ in early]
        assert seqs == sorted(seqs)
        # A subscriber attaching after completion still replays history.
        replay = [(e.seq, e.type) async for e in handle.events()]
        assert replay == early
        await manager.close()

    asyncio.run(scenario())


# --- Worker death / recovery ---------------------------------------------


@pytest.mark.slow
def test_killed_worker_recovers_and_matches_unfaulted_digest(tmp_path):
    baseline = execute_spec(tiny_spec(n_steps=4))
    svc = LocalService(
        ServiceConfig(
            isolation="process",
            max_workers=1,
            jobs_dir=str(tmp_path / "jobs"),
        )
    )
    try:
        handle = svc.submit(tiny_spec(n_steps=4, kill_at_step=2))
        outcome = handle.result(timeout=600)
        status = handle.status()
        assert outcome.recoveries == 1
        # RUNNING -> RECOVERED -> RUNNING -> DONE, never restarted.
        assert status["state_history"] == [
            JobState.RUNNING, JobState.RECOVERED,
            JobState.RUNNING, JobState.DONE,
        ]
        assert outcome.result_digest == baseline.result_digest
        event_types = [e.type for e in svc.handle(handle.job_id).events()]
        assert "recovered" in event_types
        assert event_types[-1] == "done"
    finally:
        svc.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_threaded_job_in_a_forked_worker_matches_the_inline_serial_digest(
    tmp_path,
):
    """Phase threads start inside the forked job process (the service
    parent never has any): same bits as the serial run in this one."""
    from repro.backend import available_backends

    backend = "cffi" if available_backends()["cffi"] else "numpy"
    baseline = execute_spec(tiny_spec(backend=backend))
    svc = LocalService(
        ServiceConfig(
            isolation="process",
            max_workers=1,
            jobs_dir=str(tmp_path / "jobs"),
        )
    )
    try:
        outcome = svc.submit(
            tiny_spec(backend=backend, workers=2)
        ).result(timeout=600)
        assert not outcome.cached
        assert outcome.result_digest == baseline.result_digest
    finally:
        svc.close()


# --- Warm fork image ------------------------------------------------------

_FORK_AFTER_START = """
import json, os, sys
from repro.service import JobSpec, LocalService, ServiceConfig, execute_spec

work = sys.argv[1]
svc = LocalService(ServiceConfig(
    isolation="process", store_path=work + "/store.sqlite",
    ledger_path=work + "/ledger.sqlite", jobs_dir=work + "/jobs",
    checkpoint_every=1,
))
resident = set(sys.modules)
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:  # what a fork-per-attempt worker does, minus the manager's pipe
    status = 1
    try:
        spec = JobSpec(scenario="sod", n_steps=2, overrides={"n_target": 60})
        out = execute_spec(
            spec, job_dir=work + "/jobs/job-00001", checkpoint_every=1,
            ledger_path=work + "/ledger.sqlite", run_id="sod-warm",
            spec_hash=spec.content_hash(),
        )
        reply = {"steps": out.steps, "loaded": sorted(set(sys.modules) - resident)}
        os.write(write_end, json.dumps(reply).encode())
        status = 0
    finally:
        os._exit(status)
os.close(write_end)
with os.fdopen(read_end, "rb") as fh:
    reply = fh.read()
os.waitpid(pid, 0)
svc.close()
print(reply.decode())
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_finds_every_module_resident(tmp_path, fresh_interpreter):
    """After ``LocalService`` start-up under process isolation a forked
    job attempt (checkpoints, ledger row and all) imports nothing of ours
    and no scipy/sqlite — it pays for its simulation only."""
    reply = fresh_interpreter(_FORK_AFTER_START, str(tmp_path))
    assert reply["steps"] == 2
    late = [
        m for m in reply["loaded"]
        if m.split(".")[0] in ("repro", "scipy", "sqlite3")
    ]
    assert late == []


def test_warm_runs_once_per_process_service_and_never_inline(monkeypatch):
    import repro.service.manager as manager_mod
    from repro.service.worker import warm

    calls = []
    monkeypatch.setattr(manager_mod, "warm", lambda: calls.append(1))
    inline_service().close()
    assert calls == []
    LocalService(ServiceConfig(isolation="process")).close()
    assert calls == [1]
    # Idempotent: a second call finds everything loaded and memoised.
    warm()
    before = set(sys.modules)
    warm()
    assert set(sys.modules) == before


_FORK_SIGMA_AFTER_START = """
import json, os, sys
from repro.kernels import SincKernel, base
from repro.service import LocalService, ServiceConfig

svc = LocalService(ServiceConfig(isolation="process", jobs_dir=sys.argv[1]))
calls = []
rule = base.leggauss
base.leggauss = lambda n: calls.append(n) or rule(n)
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:  # a forked worker integrating its kernel's normalization
    status = 1
    try:
        sigma = SincKernel(5.0).sigma(3)
        reply = {"sigma": sigma.hex(), "memo": len(base._SIGMA_MEMO), "calls": calls}
        os.write(write_end, json.dumps(reply).encode())
        status = 0
    finally:
        os._exit(status)
os.close(write_end)
with os.fdopen(read_end, "rb") as fh:
    reply = fh.read()
os.waitpid(pid, 0)
svc.close()
print(reply.decode())
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_warm_spares_a_forked_worker_the_quadrature_rule(
    tmp_path, fresh_interpreter
):
    """The manager evaluates no kernel, so a worker integrates sigma
    itself — on the rule ``warm()`` left in the fork image."""
    from repro.kernels import SincKernel

    reply = fresh_interpreter(_FORK_SIGMA_AFTER_START, str(tmp_path))
    assert reply["memo"] == 1  # integrated in the child ...
    assert reply["calls"] == []  # ... without recomputing the rule
    assert float.fromhex(reply["sigma"]) == SincKernel(5.0).sigma(3)


# --- Ledger / store agreement (the phantom-row fix) -----------------------


def test_executed_job_ledger_row_matches_outcome_run_id(tmp_path):
    from repro.observability.ledger import RunLedger

    ledger_path = tmp_path / "ledger.db"
    svc = inline_service(ledger_path=str(ledger_path))
    try:
        first = svc.submit(tiny_spec()).result(timeout=300)
        second = svc.submit(tiny_spec()).result(timeout=60)
        assert second.cached
    finally:
        svc.close()
    with RunLedger(ledger_path) as ledger:
        rows = ledger.runs()
        # One execution -> exactly one row; the cache hit wrote nothing.
        assert len(rows) == 1
        assert rows[0].run_id == first.run_id == second.run_id


def test_resume_without_stepping_writes_no_ledger_row(tmp_path):
    """A driver that restores a checkpoint but never advances must not
    append a ledger row on close (the phantom-row fix)."""
    from repro.observability.ledger import RunLedger
    from repro.service.runner import build_simulation

    ledger_path = str(tmp_path / "ledger.db")
    job_dir = str(tmp_path / "ckpt")
    spec = tiny_spec()
    sim, scenario = build_simulation(
        spec, checkpoint_dir=job_dir, checkpoint_every=1,
        ledger_path=ledger_path,
    )
    sim.run(n_steps=3)
    sim.close()
    # Second driver: restore only, zero steps executed.
    sim2, _ = build_simulation(
        spec, checkpoint_dir=job_dir, checkpoint_every=1,
        ledger_path=ledger_path,
    )
    assert sim2.resume()
    assert sim2.step_index == 3
    sim2.close()
    with RunLedger(ledger_path) as ledger:
        assert len(ledger.runs()) == 1
