"""The job manager: dedup cache, fair-share dispatch, recovery.

:class:`ServiceManager` admits work on whichever thread calls
``submit`` and executes it on ``max_workers`` slot threads:

1. ``submit(spec)`` canonicalizes the spec and content-hashes it.
2. A hash already *running or queued* coalesces — the caller gets a
   handle onto the in-flight job (one execution, N subscribers).
3. A hash already in the durable :class:`~repro.service.store
   .ResultStore` is served from cache — a synthetic job that is born
   ``DONE`` with the stored outcome, no simulation, no ledger row.
4. Anything else is admitted to the bounded
   :class:`~repro.service.queue.FairShareQueue` (or rejected with
   :class:`~repro.service.queue.QueueFullError` backpressure) and
   picked up by one of the slot threads :meth:`ServiceManager.start`
   starts.

The manager's one lock guards all of its state, and a condition on it
wakes an idle slot after an admission; a cache hit therefore runs on
the caller's thread alone.  Nothing else synchronizes: a slot runs its
job itself, and a handle blocks on the job's ``done`` event.

Execution isolation is per manager: ``inline`` runs the simulation on
the slot thread (fast, shares the process — the load-bench posture),
``process`` forks one OS process per attempt and *respawns it on
death*, publishing a ``recovered`` event while checkpoint autoresume
continues the run from the last completed step (RUNNING → RECOVERED →
... → DONE).

:class:`LocalService` is a started manager behind the small blocking
facade :func:`repro.api.submit` builds on.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator, List, Optional

from .events import JobEvent, JobEventLog
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
    "SyncJobHandle",
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
    done: threading.Event = field(default_factory=threading.Event)
    cancel_requested: bool = False  # polled by the job's slot between steps

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


#: The ``done`` of every cache hit: a job born finished is never waited
#: for, so the hits share one event rather than each building its own.
_BORN_DONE = threading.Event()
_BORN_DONE.set()


class JobHandle:
    """The caller's blocking view of one submitted job.

    ``result(timeout)`` returns the :class:`JobOutcome` (raising
    :class:`JobFailedError` / :class:`JobCancelledError` on the unhappy
    paths, ``TimeoutError`` when the job outlives ``timeout``);
    ``events()`` replays then streams the job's event log; ``status()``
    is an instantaneous snapshot.  Coalesced submits share one job, so N
    handles may watch one execution.
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

    def result(self, timeout: Optional[float] = None) -> JobOutcome:
        """Block for the outcome.

        Whoever finishes a job (a slot or ``close``) writes ``state`` and
        ``outcome`` before setting ``done``, and neither moves again; a
        cache hit has both before its handle exists.
        """
        done = self._job.done
        # is_set() first: it reads a flag, where wait() takes the lock of
        # an event that every cache hit shares.
        if not done.is_set() and not done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still {self.state}")
        if self._job.state == JobState.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        if self._job.outcome is None:
            raise JobFailedError(self._job.error or f"job {self.job_id} failed")
        return self._job.outcome

    def events(self) -> Iterator[JobEvent]:
        return self._job.log.subscribe()

    def cancel(self) -> bool:
        return self._manager.cancel(self.job_id)


#: The name ``repro.api`` exports the handle under.
SyncJobHandle = JobHandle


class ServiceManager:
    """Job manager: admission on the caller's thread, execution on slots.

    ``_lock`` guards all of the manager's state — ``stats``, ``jobs``,
    ``_inflight``, the queue's lanes and the store's connection — and
    ``_wake``, a condition on it, parks idle slot threads (releasing the
    lock while they wait).
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ResultStore(self.config.store_path)
        self.queue = FairShareQueue(self.config.queue_capacity)
        self.jobs: Dict[str, _Job] = {}
        self._inflight: Dict[str, _Job] = {}  # spec_hash -> live job
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._slots: List[threading.Thread] = []
        self._closed = False
        # ``len(store)`` as it stood when ``close()`` closed the store.
        self._entries_at_close: Optional[int] = None
        self._jobs_dir = self.config.jobs_dir or tempfile.mkdtemp(
            prefix="repro-jobs-"
        )
        os.makedirs(self._jobs_dir, exist_ok=True)
        self._ids = itertools.count(1)
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

    def start(self) -> "ServiceManager":
        """Start the ``max_workers`` slot threads (once)."""
        if self._closed:
            raise RuntimeError("service is closed")
        if self._slots:
            return self
        if self.config.isolation == "process":
            warm()
        for i in range(self.config.max_workers):
            slot = threading.Thread(
                target=self._slot, name=f"repro-service_{i}", daemon=True
            )
            slot.start()
            self._slots.append(slot)
        return self

    def close(self) -> None:
        """Stop admission and end every unfinished job, then the slots.

        Queued jobs end ``CANCELLED`` here; running ones get their cancel
        flag (a process child is terminated) and end ``CANCELLED`` on
        their slot, which is joined.  A later :meth:`submit` raises
        ``RuntimeError``.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = []
            while (job := self.queue.get_nowait()) is not None:
                queued.append(job)
            for job in self._inflight.values():
                job.cancel_requested = True
            self._wake.notify_all()
        for job in queued:
            self._finish(job, JobState.CANCELLED)
        for slot in self._slots:
            slot.join()
        self._slots.clear()
        with self._lock:
            self._entries_at_close = len(self.store)
            self.store.close()

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec, *, tenant: str = "anon") -> JobHandle:
        """Admit one request: coalesce, serve from cache, or enqueue.

        Runs on the caller's thread.  Raises
        :class:`~repro.service.spec.SpecError` on a malformed spec,
        :class:`~repro.service.queue.QueueFullError` when the admission
        queue is at capacity and ``RuntimeError`` after :meth:`close`.
        """
        spec_hash = spec.content_hash()  # resolves: SpecError comes first
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            self.stats["submitted"] += 1

            # 1. Coalesce with an identical in-flight job.
            live = self._inflight.get(spec_hash)
            if live is not None and live.state not in JobState.TERMINAL:
                self.stats["coalesced"] += 1
                return JobHandle(self, live)

            # 2. Serve from the durable cache: born DONE, no simulation
            #    run, and — deliberately — no ledger row (nothing
            #    executed).
            cached = self.store.get(spec_hash)
            job_id = f"job-{next(self._ids):05d}"
            job = _Job(
                job_id=job_id,
                spec=spec,
                spec_hash=spec_hash,
                tenant=tenant,
                log=JobEventLog(job_id),
                submitted_s=time.time(),
                done=_BORN_DONE if cached is not None else threading.Event(),
            )
            self.jobs[job_id] = job
            self._trim_history()
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
            self._wake.notify()
        return JobHandle(self, job)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; no-op on terminal states."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None or job.state in JobState.TERMINAL:
                return False
            withdrawn = job.state == JobState.QUEUED and self.queue.remove(job)
        if withdrawn:
            self._finish(job, JobState.CANCELLED)
        else:
            job.cancel_requested = True
        return True

    # -- dispatch ------------------------------------------------------

    def _slot(self) -> None:
        """One worker slot: take the next job, run it, until closed."""
        while True:
            with self._wake:
                self._wake.wait_for(lambda: self._closed or len(self.queue))
                if self._closed:
                    return
                job = self.queue.get_nowait()
            self._execute(job)

    def _execute(self, job: _Job) -> None:
        from ..core.simulation import RunCancelled
        from ..observability.ledger import new_run_id

        started = time.time()
        job.set_state(JobState.RUNNING)
        job.log.publish("started", isolation=self.config.isolation)
        run_id = new_run_id(job.spec.scenario)
        try:
            if self.config.isolation == "process":
                outcome = self._run_in_process(job, run_id)
            else:
                outcome = self._run_inline(job, run_id)
        except RunCancelled:
            self._finish(job, JobState.CANCELLED)
            return
        except Exception as exc:  # noqa: BLE001 - job boundary
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, JobState.FAILED)
            return
        job.outcome = outcome
        elapsed = time.time() - started
        with self._lock:
            self.stats["executed"] += 1
            self.store.put(job.spec_hash, outcome.as_dict())
            self._ewma_job_s = (
                elapsed
                if self._ewma_job_s == 0.0
                else 0.7 * self._ewma_job_s + 0.3 * elapsed
            )
        self._finish(job, JobState.DONE)

    def _finish(self, job: _Job, state: str) -> None:
        with self._lock:
            job.set_state(state)
            job.finished_s = time.time()
            self._inflight.pop(job.spec_hash, None)
            if state in (JobState.FAILED, JobState.CANCELLED):
                self.stats[state] += 1  # the two counters share the names
        if state == JobState.DONE:
            job.log.publish(
                "done",
                cached=False,
                run_id=job.outcome.run_id,
                result_digest=job.outcome.result_digest,
                recoveries=job.recoveries,
            )
        elif state == JobState.FAILED:
            job.log.publish("failed", error=job.error)
        elif state == JobState.CANCELLED:
            job.log.publish("cancelled")
        job.done.set()

    # -- inline isolation ---------------------------------------------

    def _run_inline(self, job: _Job, run_id: str) -> JobOutcome:
        return execute_spec(
            job.spec,
            job_dir=None,  # same process: death absorption is moot
            ledger_path=self.config.ledger_path,
            run_id=run_id,
            spec_hash=job.spec_hash,
            progress=lambda payload: job.log.publish("step", **payload),
            cancel_check=lambda: job.cancel_requested,
        )

    # -- process isolation + respawn-on-death --------------------------

    def _run_in_process(self, job: _Job, run_id: str) -> JobOutcome:
        """One job, N attempts: spawn, monitor, respawn until a verdict.

        A child that exits without sending ``done``/``error`` *died*
        (SIGKILL, crash).  The respawn reuses the same job directory, so
        checkpoint autoresume continues from the last completed step —
        the manager publishes ``recovered`` and the job transitions
        RUNNING → RECOVERED → RUNNING rather than restarting.
        """
        from ..core.simulation import RunCancelled

        job_dir = os.path.join(self._jobs_dir, job.job_id)
        os.makedirs(job_dir, exist_ok=True)
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
            # Fork under the lock, so that no other thread is inside the
            # store's sqlite: a child inherits its mutexes as they are, and
            # one held at the fork hangs the child's own ledger append.
            with self._lock:
                proc.start()
            child_conn.close()
            outcome_dict: Optional[Dict[str, Any]] = None
            error: Optional[str] = None
            try:
                while True:
                    if job.cancel_requested:
                        proc.terminate()
                        proc.join()
                        raise RunCancelled(0)
                    if not wait([parent_conn, proc.sentinel], 0.05):
                        continue
                    # The pipe first: a child that sent its verdict and
                    # exited is ready on both.
                    if parent_conn.poll():
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
                proc.join()
            finally:
                parent_conn.close()
            if outcome_dict is not None:
                outcome_dict["recoveries"] = job.recoveries
                return JobOutcome.from_dict(outcome_dict)
            if error is not None:
                raise JobFailedError(error)
            # Death without a verdict: absorb it and respawn.
            job.recoveries += 1
            with self._lock:
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
        with self._lock:
            job = self.jobs.get(job_id)
        return JobHandle(self, job) if job is not None else None

    def jobs_snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [job.snapshot() for job in self.jobs.values()]

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = dict(self.stats)
            out["queue_depth"] = len(self.queue)
            out["store_entries"] = (
                len(self.store)
                if self._entries_at_close is None
                else self._entries_at_close
            )
        submitted = out["submitted"] or 1
        out["served_from_cache"] = (
            (out["cache_hits"] + out["coalesced"]) / submitted
        )
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


class LocalService:
    """A started in-process :class:`ServiceManager`, as plain calls.

    What :func:`repro.api.submit` and single-process CLI use: the same
    dedup cache, queue and worker slots, with ``jobs()``/``stats()``
    snapshots and a context manager that closes the manager.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.manager = ServiceManager(self.config).start()

    def submit(self, spec: JobSpec, *, tenant: str = "anon") -> JobHandle:
        """Admit on this thread: a hit or a coalesce wakes no slot."""
        return self.manager.submit(spec, tenant=tenant)

    def run(self, spec: JobSpec, *, tenant: str = "anon") -> JobOutcome:
        """Submit and block for the outcome (convenience)."""
        return self.submit(spec, tenant=tenant).result()

    def handle(self, job_id: str) -> Optional[JobHandle]:
        return self.manager.handle(job_id)

    def jobs(self) -> List[Dict[str, Any]]:
        return self.manager.jobs_snapshot()

    def stats(self) -> Dict[str, Any]:
        return self.manager.stats_snapshot()

    def close(self) -> None:
        self.manager.close()

    def __enter__(self) -> "LocalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
