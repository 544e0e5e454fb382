"""The service layer: dedup cache, queue, events, recovery, hashing."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

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


def test_content_hash_covers_the_resolved_neighbour_count():
    """The key hashes the ``n_neighbors`` the run resolves to: the
    scenario's default spelled out is the same job, another value is not."""
    from repro.scenarios import get_scenario

    default = get_scenario("sod").sim_config.n_neighbors
    base = tiny_spec().content_hash(code_version="pinned")
    spelled = tiny_spec(n_neighbors=default)
    assert spelled.sim_config() == tiny_spec().sim_config()
    assert spelled.content_hash(code_version="pinned") == base
    other = tiny_spec(n_neighbors=default + 1)
    assert other.content_hash(code_version="pinned") != base


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
    with pytest.raises(SpecError, match="workers"):
        JobSpec("sod", workers=-1)
    with pytest.raises(SpecError, match="workers"):
        JobSpec.from_dict({"scenario": "sod", "workers": -1})
    with pytest.raises(SpecError, match="backend"):
        JobSpec("sod", backend="fortran")
    # What a JSON client can send: each integer field takes an integer
    # only, each switch a boolean only, the preset and chaos spellings a
    # string only and the overrides a mapping only.
    for name, bad in (
        ("workers", "2"), ("workers", 2.5), ("workers", True),
        ("n_steps", "3"), ("n_steps", 2.5), ("n_steps", True),
        ("n_neighbors", "30"), ("n_neighbors", True),
        ("kill_at_step", "1"), ("test", 1), ("test", "yes"), ("guard", 0),
        ("preset", 5), ("chaos", 5), ("overrides", "x"), ("overrides", [1]),
    ):
        with pytest.raises(SpecError, match=name):
            JobSpec.from_dict({"scenario": "sod", name: bad})
    assert tiny_spec(workers=2).exec_config().workers == 2


@pytest.mark.parametrize(
    "scenario, overrides, match",
    [
        ("sod", {"n_target": "x"}, "n_target must be int"),
        ("sod", {"n_target": 60.0}, "n_target must be int"),
        ("sod", {"n_target": True}, "n_target must be int"),
        ("sod", {"p_l": "1.0"}, "p_l must be float"),
        ("sod", {"p_l": None}, "p_l must be float"),
        ("square-patch", {"pressure_init": 3}, "pressure_init must be str"),
        ("wind-cloud", {"cloud_center": [0.5, 0.5]}, "cloud_center"),
        ("wind-cloud", {"cloud_center": "middle"}, "cloud_center"),
        ("sod", {"bogus_knob": 1}, "unknown sod override"),
    ],
)
def test_overrides_are_typed_when_the_spec_is_built(scenario, overrides, match):
    """Each override names a field of the scenario's IC config and has its
    type, checked at construction — before any hash — from a dict too."""
    with pytest.raises(SpecError, match=match):
        JobSpec.from_dict({"scenario": scenario, "overrides": overrides})


def test_override_check_converts_nothing():
    """A float field takes an integer as it comes, and every valid spec
    keeps the payload (so the hash) it had before the check."""
    spec = JobSpec.from_dict({
        "scenario": "wind-cloud",
        "overrides": {"p0": 2, "cloud_center": [0.5, 0.5, 0.5], "nx": 8},
    })
    assert spec.overrides == {"p0": 2, "cloud_center": [0.5, 0.5, 0.5], "nx": 8}
    payload = spec.canonical(code_version="pinned")["overrides"]
    assert payload == {"cloud_center": [0.5, 0.5, 0.5], "nx": 8, "p0": 2}
    assert JobSpec("sod", overrides={"n_target": 60, "p_l": 1.0})


def test_socket_submit_of_a_mistyped_override_gets_a_bad_spec_reply(tmp_path):
    import threading

    from repro.service.server import ServiceServer, client_request

    sock = str(tmp_path / "svc.sock")
    server = ServiceServer(sock, ServiceConfig(isolation="inline")).start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        reply = client_request(sock, {
            "op": "submit",
            "spec": {"scenario": "sod", "overrides": {"n_target": "x"}},
        })
        assert reply["ok"] is False
        assert reply["error"].startswith("bad spec: sod override n_target")
        assert client_request(sock, {"op": "stats"})["stats"]["submitted"] == 0
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


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


def test_stats_after_close_report_store_entries_as_at_close(tmp_path):
    svc = inline_service(store_path=str(tmp_path / "results.db"))
    svc.run(tiny_spec())
    svc.run(tiny_spec(n_steps=4))
    open_stats = svc.stats()
    svc.close()
    closed_stats = svc.stats()
    assert closed_stats["store_entries"] == open_stats["store_entries"] == 2
    assert closed_stats == open_stats
    assert len(svc.jobs()) == 2


# --- FairShareQueue -------------------------------------------------------


def test_queue_backpressure_rejects_with_retry_after():
    q = FairShareQueue(capacity=2)
    q.put_nowait("a", tenant="t1")
    q.put_nowait("b", tenant="t2")
    with pytest.raises(QueueFullError) as exc:
        q.put_nowait("c", tenant="t1", retry_after=2.5)
    assert exc.value.retry_after == 2.5
    assert exc.value.depth == 2


def test_queue_round_robin_is_fair_across_tenants():
    q = FairShareQueue(capacity=10)
    for i in range(3):
        q.put_nowait(f"hog-{i}", tenant="hog")
    q.put_nowait("small-0", tenant="small")
    order = [q.get_nowait() for _ in range(4)]
    # The single-job tenant is served second, not after the hog drains.
    assert order.index("small-0") == 1


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
    manager = ServiceManager(ServiceConfig(isolation="inline"))
    # No slots started: both submissions stay queued, so the second
    # deterministically coalesces onto the first's job.
    h1 = manager.submit(tiny_spec())
    h2 = manager.submit(tiny_spec())
    assert h1.job_id == h2.job_id
    assert manager.stats["coalesced"] == 1
    manager.close()


def test_manager_backpressure_rejects_beyond_capacity():
    manager = ServiceManager(
        ServiceConfig(isolation="inline", queue_capacity=2)
    )
    manager.submit(tiny_spec(n_steps=3))
    manager.submit(tiny_spec(n_steps=4))
    with pytest.raises(QueueFullError) as exc:
        manager.submit(tiny_spec(n_steps=5))
    assert exc.value.retry_after > 0
    assert manager.stats["rejected"] == 1
    manager.close()


def test_malformed_spec_raises_before_any_bookkeeping():
    manager = ServiceManager(ServiceConfig(isolation="inline"))
    for bad in (
        JobSpec(scenario="nosuch"),
        JobSpec(scenario="sod", chaos="not-a-chaos-spec"),
    ):
        with pytest.raises(SpecError):
            manager.submit(bad)
    # An unknown override never even becomes a spec.
    with pytest.raises(SpecError, match="bogus_knob"):
        manager.submit(JobSpec(scenario="sod", overrides={"bogus_knob": 1}))
    assert manager.stats["submitted"] == 0
    assert manager.jobs == {}
    manager.close()


# --- Admission on the caller's thread ------------------------------------


def _run_clients(n, client):
    """Start ``n`` threads on ``client(k)`` at once; join them all."""
    barrier = threading.Barrier(n)

    def start(k):
        barrier.wait()
        client(k)

    threads = [threading.Thread(target=start, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_simultaneous_submits_of_one_uncached_spec_execute_it_once():
    svc = inline_service()
    outcomes = [None] * 8
    try:

        def client(k):
            outcomes[k] = svc.submit(tiny_spec(n_steps=4)).result(timeout=300)

        _run_clients(8, client)
        stats = svc.stats()
        assert stats["submitted"] == 8
        assert stats["executed"] == 1
        assert stats["coalesced"] + stats["cache_hits"] == 7
        assert len({out.result_digest for out in outcomes}) == 1
    finally:
        svc.close()


def _record_wakes(monkeypatch, manager):
    """Every slot wake-up ``manager`` issues from now on."""
    wakes = []
    notify = manager._wake.notify
    monkeypatch.setattr(
        manager._wake, "notify",
        lambda *a: wakes.append(threading.current_thread().name) or notify(*a),
    )
    return wakes


def test_queue_full_is_raised_on_the_callers_thread(monkeypatch):
    import repro.service.manager as manager_mod

    gate, started = threading.Event(), threading.Event()

    def stuck(spec, **kwargs):
        started.set()
        gate.wait(timeout=60)
        raise RuntimeError("released")

    monkeypatch.setattr(manager_mod, "execute_spec", stuck)
    svc = inline_service(max_workers=1, queue_capacity=1)
    try:
        svc.submit(tiny_spec())
        assert started.wait(timeout=60)  # the worker holds it: queue empty
        svc.submit(tiny_spec(n_steps=4))  # takes the one queue place
        wakes = _record_wakes(monkeypatch, svc.manager)
        with pytest.raises(QueueFullError) as exc:
            svc.submit(tiny_spec(n_steps=5))
        assert exc.value.retry_after > 0
        assert exc.value.depth == 1
        assert wakes == []
        assert svc.stats()["rejected"] == 1
    finally:
        gate.set()
        svc.close()


def test_stats_and_jobs_snapshots_hold_while_clients_submit():
    """A poller reads ``jobs()``/``stats()`` while two clients submit a
    mix of misses, coalesces and hits; a short history keeps ``jobs``
    trimming under it."""
    svc = inline_service(history_limit=3)
    specs = [tiny_spec(n_steps=n) for n in (3, 4, 3, 5, 4, 3, 5, 6)]
    stop = threading.Event()
    errors = []
    polls = [0]

    def poll():
        while not stop.is_set():
            try:
                svc.jobs()
                svc.stats()
            except Exception as exc:  # noqa: BLE001 - asserted empty
                errors.append(exc)
            polls[0] += 1

    def client(k):
        try:
            for spec in specs:
                svc.submit(spec).result(timeout=300)
        except Exception as exc:  # noqa: BLE001 - asserted empty
            errors.append(exc)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        _run_clients(2, client)
    finally:
        stop.set()
        poller.join()
    try:
        assert errors == []
        assert polls[0] > 0
        stats = svc.stats()
        assert stats["submitted"] == 2 * len(specs)
        assert stats["executed"] == len({spec.n_steps for spec in specs})
        assert stats["submitted"] == sum(
            stats[k]
            for k in ("cache_hits", "coalesced", "rejected", "executed",
                      "failed", "cancelled")
        )
        assert len(svc.jobs()) <= 3
    finally:
        svc.close()


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


def test_stored_spec_is_served_without_waking_a_slot(monkeypatch):
    svc = inline_service()
    try:
        ran = svc.submit(tiny_spec())
        first = ran.result(timeout=300)
        wakes = _record_wakes(monkeypatch, svc.manager)
        hit = svc.submit(tiny_spec())  # a stored spec: no slot work at all
        assert hit.state == JobState.DONE
        assert hit.result() is hit.result()
        assert hit.result().cached
        assert hit.result().result_digest == first.result_digest
        assert ran.result() is first
        events = {h.job_id: list(h.events()) for h in (ran, hit)}
        assert wakes == []
        for h in (ran, hit):
            assert events[h.job_id] == h._job.log.events
        assert [e.type for e in events[hit.job_id]] == ["queued", "done"]
        assert events[ran.job_id][-1].type == "done"
        # A miss, by contrast, wakes one slot, from the submitting thread.
        svc.submit(tiny_spec(n_steps=4)).result(timeout=300)
        assert wakes == [threading.current_thread().name]
    finally:
        svc.close()


def test_failed_and_cancelled_jobs_raise_from_result(monkeypatch):
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
    manager = ServiceManager(ServiceConfig(isolation="inline")).start()
    handle = manager.submit(tiny_spec())

    def collect():
        return [(e.seq, e.type) for e in handle.events()]

    early, late = collect(), collect()
    assert early == late
    types = [t for _, t in early]
    assert types[0] == "queued"
    assert types[1] == "started"
    assert types[-1] == "done"
    assert types.count("step") == 3  # one per simulated step
    seqs = [s for s, _ in early]
    assert seqs == sorted(seqs)
    # A subscriber attaching after completion still replays history.
    replay = [(e.seq, e.type) for e in handle.events()]
    assert replay == early
    manager.close()


def test_subscriber_threads_attaching_mid_job_see_one_gap_free_stream(
    monkeypatch,
):
    """Four threads subscribe at staggered moments of one inline job —
    before its first step, after it, mid-run, after its last step — and
    a fifth after it ends: all five see the same ``seq`` 0, 1, 2, ...
    of ``queued``, ``started``, one ``step`` per step, ``done``."""
    import repro.service.manager as manager_mod

    n_steps = 6
    moments = {1: "first", 3: "mid", n_steps: "last"}  # step -> subscriber
    names = ["start", *moments.values()]
    attach = {name: threading.Event() for name in names}
    attached = {name: threading.Event() for name in names}
    real_execute = manager_mod.execute_spec

    def paced(spec, *, progress, **kwargs):
        def step(payload):
            progress(payload)
            name = moments.get(payload["step"])
            if name is not None:  # let one subscriber in, mid-stream
                attach[name].set()
                assert attached[name].wait(timeout=60)
        attach["start"].set()
        assert attached["start"].wait(timeout=60)
        return real_execute(spec, progress=step, **kwargs)

    monkeypatch.setattr(manager_mod, "execute_spec", paced)
    svc = inline_service(max_workers=1)
    streams = {}
    try:
        handle = svc.submit(tiny_spec(n_steps=n_steps))

        def subscriber(name):
            assert attach[name].wait(timeout=60)
            events = handle.events()
            first = next(events)  # replay and registration are done
            attached[name].set()
            streams[name] = [(e.seq, e.type) for e in [first, *events]]

        threads = [
            threading.Thread(target=subscriber, args=(name,))
            for name in attach
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert handle.result(timeout=60).steps == n_steps
        streams["after"] = [(e.seq, e.type) for e in handle.events()]
    finally:
        svc.close()
    expected = list(enumerate(
        ["queued", "started"] + ["step"] * n_steps + ["done"]
    ))
    assert set(streams) == {"start", "first", "mid", "last", "after"}
    for name, stream in streams.items():
        assert stream == expected, name


def test_event_log_subscribers_racing_a_publisher_miss_nothing():
    """Subscriptions taken while another thread publishes as fast as it
    can: each replay-then-live stream is every ``seq`` exactly once."""
    log = JobEventLog("job-race")
    n = 20_000
    streams = []

    def publisher():
        for i in range(n):
            log.publish("step", step=i)
        log.publish("done")

    threads = [threading.Thread(target=publisher)]
    threads += [
        threading.Thread(target=lambda: streams.append(
            [e.seq for e in log.subscribe()]
        ))
        for _ in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-publish, often
    try:
        for t in threads:
            t.start()
            time.sleep(0.002)
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(streams) == 4
    for stream in streams:
        assert stream == list(range(n + 1))


# --- close() with jobs in flight -----------------------------------------


def _close_with_jobs_in_flight(isolation):
    """One slot: a 40-step patch running, a ``sod`` job queued, close()."""
    svc = LocalService(ServiceConfig(isolation=isolation, max_workers=1))
    running = svc.submit(JobSpec(scenario="square-patch", n_steps=40))
    queued = svc.submit(tiny_spec())
    deadline = time.time() + 120
    while running.state != JobState.RUNNING and time.time() < deadline:
        time.sleep(0.01)
    assert running.state == JobState.RUNNING
    assert queued.state == JobState.QUEUED
    svc.close()
    for handle in (running, queued):
        assert handle.state == JobState.CANCELLED
        with pytest.raises(JobCancelledError):
            handle.result(timeout=0)
        assert [e.type for e in handle.events()][-1] == "cancelled"
    assert [e.type for e in queued.events()] == ["queued", "cancelled"]
    assert svc.manager.stats["cancelled"] == 2
    with pytest.raises(RuntimeError, match="service is closed"):
        svc.submit(tiny_spec(n_steps=5))
    assert [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-service")
    ] == []
    assert multiprocessing.active_children() == []
    svc.close()  # idempotent


def test_close_cancels_inline_jobs_in_flight_and_joins_the_slots():
    _close_with_jobs_in_flight("inline")


@pytest.mark.slow
def test_close_cancels_process_jobs_in_flight_and_reaps_the_child():
    _close_with_jobs_in_flight("process")


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
        assert outcome.drift == baseline.drift
        event_types = [e.type for e in svc.handle(handle.job_id).events()]
        assert "recovered" in event_types
        assert event_types[-1] == "done"
    finally:
        svc.close()


def test_second_attempt_resumes_to_the_unfaulted_drift_and_digest(tmp_path):
    """An attempt stopped after step 2 leaves its checkpoints; a second
    attempt on the same job directory runs steps 3-4 only and reports the
    uninterrupted job's drift (measured from step 0) and digest — and so
    does a third, which restores the final step and runs none."""
    from repro.core.simulation import RunCancelled

    spec = tiny_spec(n_steps=4, overrides={"n_target": 100})
    baseline = execute_spec(spec)
    job_dir = str(tmp_path / "job")
    steps = []

    def attempt(**kw):
        return execute_spec(
            spec, job_dir=job_dir, checkpoint_every=1,
            progress=lambda p: steps.append(p["step"]), **kw
        )

    with pytest.raises(RunCancelled):
        attempt(cancel_check=lambda: steps[-1] == 2)
    assert steps == [1, 2]
    for _ in range(2):
        outcome = attempt()
        assert steps == [1, 2, 3, 4]
        assert outcome.steps == 4
        assert outcome.result_digest == baseline.result_digest
        assert outcome.drift == baseline.drift


def test_fresh_job_searches_its_checkpoint_directory_once(tmp_path, monkeypatch):
    import repro.resilience.checkpoint as checkpoint_mod

    searched = []
    real_search = checkpoint_mod._newest_valid_checkpoint

    def search(directory, read):
        searched.append(str(directory))
        return real_search(directory, read)

    monkeypatch.setattr(checkpoint_mod, "_newest_valid_checkpoint", search)
    job_dir = str(tmp_path / "job")
    outcome = execute_spec(tiny_spec(), job_dir=job_dir, checkpoint_every=1)
    assert outcome.steps == 3
    assert searched == [job_dir]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_job_attempts_fork_under_the_managers_lock(monkeypatch):
    """A child inherits sqlite's mutexes as they stand at the fork, and
    its ledger append hangs on one that another slot or a client held.
    Every store access takes the manager's lock, so forking under it
    leaves none held."""
    from multiprocessing.process import BaseProcess

    svc = LocalService(ServiceConfig(isolation="process", max_workers=1))
    held = []
    real_start = BaseProcess.start

    def start(proc):
        held.append(svc.manager._lock.locked())
        return real_start(proc)

    monkeypatch.setattr(BaseProcess, "start", start)
    try:
        svc.submit(tiny_spec()).result(timeout=300)
    finally:
        svc.close()
    assert held == [True]


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
