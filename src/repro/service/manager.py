"""The asyncio job manager: dedup cache, fair-share dispatch, recovery.

:class:`ServiceManager` owns the whole job lifecycle on one event loop:

1. ``submit(spec)`` canonicalizes the spec and content-hashes it.
2. A hash already *running or queued* coalesces — the caller gets a
   handle onto the in-flight job (one execution, N subscribers).
3. A hash already in the durable :class:`~repro.service.store
   .ResultStore` is served from cache — a synthetic job that is born
   ``DONE`` with the stored outcome, no simulation, no ledger row.
4. Anything else is admitted to the bounded
   :class:`~repro.service.queue.FairShareQueue` (or rejected with
   :class:`~repro.service.queue.QueueFullError` backpressure) and
   picked up by one of ``max_workers`` dispatcher tasks.

Execution isolation is per manager: ``inline`` runs the simulation on a
thread (fast, shares the process — the load-bench posture), ``process``
forks one OS process per attempt and *respawns it on death*, publishing
a ``recovered`` event while checkpoint autoresume continues the run
from the last completed step (RUNNING → RECOVERED → ... → DONE).

:class:`LocalService` wraps a manager + private event-loop thread into
the synchronous facade :func:`repro.api.submit` builds on.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import itertools
import multiprocessing as mp
import os
import queue as _thread_queue
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, Iterator, List, Optional, Set

from .events import JobEventLog
from .queue import FairShareQueue, QueueFullError
from .runner import JobOutcome, execute_spec
from .spec import JobSpec
from .store import ResultStore
from .worker import process_worker_main, warm

__all__ = [
    "JobState",
    "JobError",
    "JobFailedError",
    "JobCancelledError",
    "ServiceConfig",
    "ServiceManager",
    "JobHandle",
    "LocalService",
]


class JobState:
    """Job lifecycle states (plain strings, stable wire format)."""

    QUEUED = "queued"
    RUNNING = "running"
    RECOVERED = "recovered"  # transient: worker died, respawn resumed it
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


class JobError(RuntimeError):
    """Base for job-terminal errors raised from ``JobHandle.result()``."""


class JobFailedError(JobError):
    """The job ran and failed; ``str(exc)`` carries the worker's error."""


class JobCancelledError(JobError):
    """The job was cancelled before producing a result."""


@dataclass(frozen=True)
class ServiceConfig:
    """Manager-level knobs (per-job knobs live on the JobSpec).

    ``isolation`` selects the worker-slot style: ``"process"`` (default)
    forks one OS process per attempt and absorbs worker death via
    checkpoint autoresume + respawn; ``"inline"`` runs on a thread in
    this process — no death absorption, much lower per-job overhead.
    """

    store_path: Optional[str] = None  # None -> in-memory (non-durable)
    jobs_dir: Optional[str] = None  # None -> fresh temp dir
    ledger_path: Optional[str] = None
    isolation: str = "process"
    max_workers: int = 2
    queue_capacity: int = 64
    max_recoveries: int = 3
    checkpoint_every: int = 1
    history_limit: int = 256  # terminal jobs kept for `repro jobs`

    def __post_init__(self):
        if self.isolation not in ("inline", "process"):
            raise ValueError(
                f"isolation must be 'inline' or 'process', "
                f"got {self.isolation!r}"
            )
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


@dataclass
class _Job:
    """Manager-internal job record (handles hold a reference to one)."""

    job_id: str
    spec: JobSpec
    spec_hash: str
    tenant: str
    log: JobEventLog
    state: str = JobState.QUEUED
    state_history: List[str] = field(default_factory=list)
    outcome: Optional[JobOutcome] = None
    error: Optional[str] = None
    cached: bool = False
    recoveries: int = 0
    submitted_s: float = 0.0
    finished_s: float = 0.0
    done: asyncio.Event = field(default_factory=asyncio.Event)
    cancel_flag: threading.Event = field(default_factory=threading.Event)

    def set_state(self, state: str) -> None:
        self.state = state
        self.state_history.append(state)

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "scenario": self.spec.scenario,
            "tenant": self.tenant,
            "state": self.state,
            "state_history": list(self.state_history),
            "cached": self.cached,
            "recoveries": self.recoveries,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.outcome is not None:
            out["result_digest"] = self.outcome.result_digest
            out["run_id"] = self.outcome.run_id
        return out


class JobHandle:
    """The caller's view of one submitted job (async side).

    ``await result()`` resolves to the :class:`JobOutcome` (raising
    :class:`JobFailedError` / :class:`JobCancelledError` on the
    unhappy paths); ``events()`` replays then streams the job's event
    log; ``status()`` is an instantaneous snapshot.  Coalesced submits
    share one job, so N handles may watch one execution.
    """

    def __init__(self, manager: "ServiceManager", job: _Job):
        self._manager = manager
        self._job = job

    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def spec(self) -> JobSpec:
        return self._job.spec

    @property
    def spec_hash(self) -> str:
        return self._job.spec_hash

    @property
    def state(self) -> str:
        return self._job.state

    def status(self) -> Dict[str, Any]:
        return self._job.snapshot()

    async def result(self) -> JobOutcome:
        await self._job.done.wait()
        if self._job.state == JobState.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        if self._job.outcome is None:
            raise JobFailedError(self._job.error or f"job {self.job_id} failed")
        return self._job.outcome

    def events(self) -> AsyncIterator:
        return self._job.log.subscribe()

    async def cancel(self) -> bool:
        return await self._manager.cancel(self.job_id)


class ServiceManager:
    """Asyncio job manager: submit/dedup/dispatch/recover on one loop."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ResultStore(self.config.store_path)
        self.queue = FairShareQueue(self.config.queue_capacity)
        self.jobs: Dict[str, _Job] = {}
        self._inflight: Dict[str, _Job] = {}  # spec_hash -> live job
        self._workers: List[asyncio.Task] = []
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-service",
        )
        self._jobs_dir = self.config.jobs_dir or tempfile.mkdtemp(
            prefix="repro-jobs-"
        )
        os.makedirs(self._jobs_dir, exist_ok=True)
        self._ids = itertools.count(1)
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Exponentially-weighted mean job seconds, for retry_after.
        self._ewma_job_s = 0.0
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "executed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "rejected": 0,
            "recoveries": 0,
            "failed": 0,
            "cancelled": 0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ServiceManager":
        if self._running:
            return self
        self._running = True
        self._loop = asyncio.get_running_loop()
        if self.config.isolation == "process":
            warm()
        for i in range(self.config.max_workers):
            self._workers.append(
                asyncio.ensure_future(self._worker_loop(i))
            )
        return self

    async def close(self) -> None:
        if not self._running:
            return
        self._running = False
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        self._pool.shutdown(wait=False)
        self.store.close()

    # -- submission ----------------------------------------------------

    async def submit(self, spec: JobSpec, *, tenant: str = "anon") -> JobHandle:
        """Admit one request: coalesce, serve from cache, or enqueue.

        Raises :class:`~repro.service.spec.SpecError` on a malformed
        spec and :class:`~repro.service.queue.QueueFullError` when the
        admission queue is at capacity.
        """
        spec_hash = spec.content_hash()  # resolves: SpecError comes first
        self.stats["submitted"] += 1

        # 1. Coalesce with an identical in-flight job.
        live = self._inflight.get(spec_hash)
        if live is not None and live.state not in JobState.TERMINAL:
            self.stats["coalesced"] += 1
            return JobHandle(self, live)

        job_id = f"job-{next(self._ids):05d}"
        job = _Job(
            job_id=job_id,
            spec=spec,
            spec_hash=spec_hash,
            tenant=tenant,
            log=JobEventLog(job_id),
            submitted_s=time.time(),
        )
        self.jobs[job_id] = job
        self._trim_history()

        # 2. Serve from the durable cache: born DONE, no simulation run,
        #    and — deliberately — no ledger row (nothing executed).
        cached = self.store.get(spec_hash)
        if cached is not None:
            self.stats["cache_hits"] += 1
            job.cached = True
            outcome_dict = dict(cached.outcome)
            outcome_dict["cached"] = True
            job.outcome = JobOutcome.from_dict(outcome_dict)
            job.set_state(JobState.DONE)
            job.finished_s = time.time()
            job.log.publish(
                "queued", tenant=tenant, spec_hash=spec_hash, cached=True
            )
            job.log.publish(
                "done",
                cached=True,
                run_id=cached.run_id,
                result_digest=cached.result_digest,
            )
            job.done.set()
            return JobHandle(self, job)

        # 3. Fresh work: admit or reject with backpressure.
        try:
            self.queue.put_nowait(
                job, tenant=tenant, retry_after=self._retry_after()
            )
        except QueueFullError:
            self.stats["rejected"] += 1
            del self.jobs[job.job_id]
            raise
        self._inflight[spec_hash] = job
        job.log.publish("queued", tenant=tenant, spec_hash=spec_hash)
        return JobHandle(self, job)

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; no-op on terminal states."""
        job = self.jobs.get(job_id)
        if job is None or job.state in JobState.TERMINAL:
            return False
        if job.state == JobState.QUEUED and self.queue.remove(job):
            self._finish(job, JobState.CANCELLED)
            return True
        job.cancel_flag.set()
        return True

    # -- dispatch ------------------------------------------------------

    async def _worker_loop(self, slot: int) -> None:
        while True:
            job = await self.queue.get()
            if job.state in JobState.TERMINAL:  # cancelled while queued
                continue
            started = time.time()
            try:
                await self._execute(job)
            finally:
                if job.state == JobState.DONE and not job.cached:
                    elapsed = time.time() - started
                    self._ewma_job_s = (
                        elapsed
                        if self._ewma_job_s == 0.0
                        else 0.7 * self._ewma_job_s + 0.3 * elapsed
                    )

    async def _execute(self, job: _Job) -> None:
        from ..core.simulation import RunCancelled
        from ..observability.ledger import new_run_id

        job.set_state(JobState.RUNNING)
        job.log.publish("started", isolation=self.config.isolation)
        run_id = new_run_id(job.spec.scenario)
        job_dir = os.path.join(self._jobs_dir, job.job_id)
        try:
            if self.config.isolation == "process":
                outcome = await self._run_in_process(job, job_dir, run_id)
            else:
                outcome = await self._run_inline(job, job_dir, run_id)
        except RunCancelled:
            self._finish(job, JobState.CANCELLED)
            return
        except Exception as exc:  # noqa: BLE001 - job boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, JobState.FAILED)
            return
        job.outcome = outcome
        self.stats["executed"] += 1
        self.store.put(job.spec_hash, outcome.as_dict())
        self._finish(job, JobState.DONE)

    def _finish(self, job: _Job, state: str) -> None:
        job.set_state(state)
        job.finished_s = time.time()
        self._inflight.pop(job.spec_hash, None)
        if state == JobState.DONE:
            job.log.publish(
                "done",
                cached=False,
                run_id=job.outcome.run_id,
                result_digest=job.outcome.result_digest,
                recoveries=job.recoveries,
            )
        elif state == JobState.FAILED:
            self.stats["failed"] += 1
            job.log.publish("failed", error=job.error)
        elif state == JobState.CANCELLED:
            self.stats["cancelled"] += 1
            job.log.publish("cancelled")
        job.done.set()

    # -- inline isolation ---------------------------------------------

    async def _run_inline(
        self, job: _Job, job_dir: str, run_id: str
    ) -> JobOutcome:
        loop = asyncio.get_running_loop()
        publish = job.log.publish

        def progress(payload: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(
                functools.partial(publish, "step", **payload)
            )

        return await loop.run_in_executor(
            self._pool,
            lambda: execute_spec(
                job.spec,
                job_dir=None,  # same process: death absorption is moot
                ledger_path=self.config.ledger_path,
                run_id=run_id,
                spec_hash=job.spec_hash,
                progress=progress,
                cancel_check=job.cancel_flag.is_set,
            ),
        )

    # -- process isolation + respawn-on-death --------------------------

    async def _run_in_process(
        self, job: _Job, job_dir: str, run_id: str
    ) -> JobOutcome:
        """One job, N attempts: spawn, monitor, respawn until a verdict.

        A child that exits without sending ``done``/``error`` *died*
        (SIGKILL, crash).  The respawn reuses the same ``job_dir``, so
        checkpoint autoresume continues from the last completed step —
        the manager publishes ``recovered`` and the job transitions
        RUNNING → RECOVERED → RUNNING rather than restarting.
        """
        os.makedirs(job_dir, exist_ok=True)
        loop = asyncio.get_running_loop()
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        spec_dict = job.spec.as_dict()
        while True:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=process_worker_main,
                args=(
                    spec_dict,
                    job.spec_hash,
                    job_dir,
                    run_id,
                    self.config.checkpoint_every,
                    self.config.ledger_path,
                    child_conn,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            outcome_dict: Optional[Dict[str, Any]] = None
            error: Optional[str] = None
            try:
                while True:
                    if job.cancel_flag.is_set():
                        proc.terminate()
                        await loop.run_in_executor(None, proc.join)
                        from ..core.simulation import RunCancelled

                        raise RunCancelled(0)
                    ready = await loop.run_in_executor(
                        None, parent_conn.poll, 0.05
                    )
                    if ready:
                        try:
                            kind, payload = parent_conn.recv()
                        except EOFError:
                            break
                        if kind == "step":
                            job.log.publish("step", **payload)
                        elif kind == "done":
                            outcome_dict = payload
                            break
                        elif kind == "error":
                            error = payload
                            break
                    elif not proc.is_alive():
                        break
                await loop.run_in_executor(None, proc.join)
            finally:
                parent_conn.close()
            if outcome_dict is not None:
                outcome_dict["recoveries"] = job.recoveries
                return JobOutcome.from_dict(outcome_dict)
            if error is not None:
                raise JobFailedError(error)
            # Death without a verdict: absorb it and respawn.
            job.recoveries += 1
            self.stats["recoveries"] += 1
            if job.recoveries > self.config.max_recoveries:
                raise JobFailedError(
                    f"worker died {job.recoveries} times "
                    f"(exitcode {proc.exitcode}); giving up"
                )
            job.set_state(JobState.RECOVERED)
            job.log.publish(
                "recovered",
                exitcode=proc.exitcode,
                respawn=job.recoveries,
            )
            job.set_state(JobState.RUNNING)

    # -- introspection -------------------------------------------------

    def handle(self, job_id: str) -> Optional[JobHandle]:
        job = self.jobs.get(job_id)
        return JobHandle(self, job) if job is not None else None

    def jobs_snapshot(self) -> List[Dict[str, Any]]:
        return [job.snapshot() for job in self.jobs.values()]

    def stats_snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = dict(self.stats)
        submitted = out["submitted"] or 1
        out["served_from_cache"] = (
            (out["cache_hits"] + out["coalesced"]) / submitted
        )
        out["queue_depth"] = len(self.queue)
        out["store_entries"] = len(self.store)
        out["isolation"] = self.config.isolation
        return out

    def _retry_after(self) -> float:
        per_job = self._ewma_job_s or 1.0
        waves = (len(self.queue) + 1) / max(1, self.config.max_workers)
        return round(max(0.1, per_job * waves), 3)

    def _trim_history(self) -> None:
        """Bound the terminal-job history (live jobs are never evicted)."""
        excess = len(self.jobs) - self.config.history_limit
        if excess <= 0:
            return
        # Oldest first, stopping at the ``excess``-th terminal job: with a
        # full history of finished jobs that is one step, not a scan.
        terminal = (
            jid
            for jid, j in self.jobs.items()
            if j.state in JobState.TERMINAL
        )
        for job_id in list(itertools.islice(terminal, excess)):
            del self.jobs[job_id]


# ---------------------------------------------------------------------------
# Synchronous facade
# ---------------------------------------------------------------------------


class SyncJobHandle:
    """Blocking view of a job, for synchronous callers (api/CLI)."""

    def __init__(self, service: "LocalService", handle: JobHandle):
        self._service = service
        self._handle = handle

    @property
    def job_id(self) -> str:
        return self._handle.job_id

    @property
    def spec(self) -> JobSpec:
        return self._handle.spec

    @property
    def spec_hash(self) -> str:
        return self._handle.spec_hash

    @property
    def state(self) -> str:
        return self._handle.state

    def status(self) -> Dict[str, Any]:
        return self._handle.status()

    def result(self, timeout: Optional[float] = None) -> JobOutcome:
        """Block for the outcome.

        A job already ``DONE`` answers from this thread: the loop writes
        ``state`` and ``outcome`` before it sets ``done``, and neither
        moves again.  Every other state waits on the loop, which also
        raises the failed and cancelled errors.
        """
        job = self._handle._job
        if job.done.is_set() and job.state == JobState.DONE:
            return job.outcome
        return self._service._call(self._handle.result(), timeout=timeout)

    def cancel(self) -> bool:
        return self._service._call(self._handle.cancel())

    def events(self) -> Iterator:
        """Blocking generator over the job's event stream.

        A closed log (the job is terminal) is replayed from this thread;
        an open one is pumped from the loop through a queue.
        """
        log = self._handle._job.log
        if log.closed:
            yield from log.events
            return
        bridge: "_thread_queue.Queue" = _thread_queue.Queue()

        async def pump() -> None:
            try:
                async for event in self._handle.events():
                    bridge.put(event)
            finally:
                bridge.put(None)

        self._service._spawn(pump())
        while True:
            event = bridge.get()
            if event is None:
                return
            yield event


class _Resumed:
    """The rest of a coroutine already stepped to its first suspension,
    as an awaitable a Task can drive: the Task gets what the coroutine
    awaits, the coroutine gets what the Task sends or throws back."""

    def __init__(self, coro, awaited):
        self._coro = coro
        self._awaited = awaited

    def __await__(self):
        coro, awaited = self._coro, self._awaited
        while True:
            try:
                try:
                    sent = yield awaited
                except BaseException as exc:  # noqa: BLE001 - delegated
                    awaited = coro.throw(exc)
                else:
                    awaited = coro.send(sent)
            except StopIteration as stop:
                return stop.value


def _settle(future: concurrent.futures.Future, task: asyncio.Task) -> None:
    """Copy a finished Task's outcome onto the caller's future."""
    if task.cancelled():
        future.cancel()
    elif task.exception() is not None:
        future.set_exception(task.exception())
    else:
        future.set_result(task.result())


class LocalService:
    """In-process service on a background event-loop thread.

    The synchronous face of :class:`ServiceManager` — what
    :func:`repro.api.submit` and single-process CLI use.  Same dedup
    cache, same queue, same worker slots; just bridged so plain code
    can call ``submit(...).result()`` without touching asyncio.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self._loop = asyncio.new_event_loop()
        self._tasks: Set[asyncio.Task] = set()  # loop-owned: tasks are weak
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service-loop",
            daemon=True,
        )
        self._thread.start()
        self.manager = ServiceManager(self.config)
        self._call(self.manager.start())
        self._closed = False

    def _call(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the loop; block for its value.

        The loop steps the coroutine in the callback that wakes it, so
        one that never suspends (a ``submit`` or ``cancel``) is answered
        from that callback — no Task, no chained future, no further loop
        iterations.  One that suspends is finished under a Task.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()

        def start() -> None:
            try:
                awaited = coro.send(None)
            except StopIteration as stop:
                future.set_result(stop.value)
            except Exception as exc:  # noqa: BLE001 - to the caller
                future.set_exception(exc)
            else:
                task = asyncio.ensure_future(_Resumed(coro, awaited))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                task.add_done_callback(functools.partial(_settle, future))

        self._loop.call_soon_threadsafe(start)
        return future.result(timeout)

    def _spawn(self, coro) -> None:
        asyncio.run_coroutine_threadsafe(coro, self._loop)

    def submit(self, spec: JobSpec, *, tenant: str = "anon") -> SyncJobHandle:
        handle = self._call(self.manager.submit(spec, tenant=tenant))
        return SyncJobHandle(self, handle)

    def run(self, spec: JobSpec, *, tenant: str = "anon") -> JobOutcome:
        """Submit and block for the outcome (convenience)."""
        return self.submit(spec, tenant=tenant).result()

    def handle(self, job_id: str) -> Optional[SyncJobHandle]:
        job = self.manager.jobs.get(job_id)
        if job is None:
            return None
        return SyncJobHandle(self, JobHandle(self.manager, job))

    def jobs(self) -> List[Dict[str, Any]]:
        return self.manager.jobs_snapshot()

    def stats(self) -> Dict[str, Any]:
        return self.manager.stats_snapshot()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._call(self.manager.close(), timeout=10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop.close()

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
