"""Supervised worker pool: liveness monitoring and crash/hang recovery.

Section 4 of the paper: "faults, errors and failures have become the norm
rather than the exception in large-scale systems".  The plain
:class:`~repro.parallel.pool.WorkerPool` assumes fault-free workers — a
crashed child aborts the run and a hung one deadlocks it.  This module
wraps the pool in a supervisor that turns both into recoverable events:

* **Crash detection** — the parent multiplexes every worker pipe together
  with every ``Process.sentinel`` through ``multiprocessing.connection
  .wait``; a worker death is observed the moment the OS reaps it, not
  when a ``recv`` happens to block on its pipe.
* **Hang detection** — each worker carries a deadline for the task at the
  head of its FIFO queue, derived from an EWMA of observed per-kind task
  latencies (``max(min_deadline, deadline_factor × EWMA)``, with a
  generous ``initial_deadline`` before anything has been observed).
* **Recovery** — lost chunks (and only those) are re-issued to healthy
  workers; dead slots are respawned against the current arena generation
  with exponential backoff and a bounded budget; a chunk that keeps
  failing falls back to *serial in-parent* execution, and when no worker
  survives the whole pool degrades to serial for the remainder of the
  run.  The answer is never wrong and the run never hangs.
* **Idempotence** — every task carries a unique ``stamp`` echoed in its
  reply.  When a deadline fires, the worker's outstanding stamps are
  *abandoned* and the chunks re-issued elsewhere; a late reply matching
  an abandoned stamp is drained and discarded instead of double-applied.
  Within one arena cycle a late slice write is bitwise identical to the
  re-issued one (same inputs, same kernel), and cross-cycle writes are
  impossible because a worker still holding abandoned stamps at the end
  of the fan-out is terminated and respawned.

Because chunks write disjoint row slices and the parent merges reply
scalars in submission order, recovery preserves the bitwise serial parity
established in the PR-1 tests — re-execution is invisible in the results.

An opt-in verification pass (``verify=...``) re-checksums each output
slice in the parent against a CRC the worker took right after computing
(reusing the :mod:`repro.resilience.sdc` detector style on real phase
outputs) plus a finite/positivity scan; a corrupted chunk is recomputed
serially from the pristine arena inputs.

Deterministic fault injection for all of the above lives in
:mod:`repro.resilience.chaos`; the supervisor consults an optional
:class:`~repro.resilience.chaos.ChaosPolicy` at submission time and ships
matching directives (kill / delay / flip) inside the task dict.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mpconnection
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple
import zlib

import numpy as np

from ..profiling.trace import State, Tracer
from .pool import TASK_HANDLERS, WorkerPool
from .shm import ArenaView

__all__ = [
    "SupervisorConfig",
    "RecoveryEvent",
    "SupervisorStats",
    "SupervisedPool",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness/recovery knobs for :class:`SupervisedPool`.

    Parameters
    ----------
    deadline_factor:
        Multiple of the per-kind EWMA latency a head-of-queue task may
        take before it is presumed hung.
    min_deadline:
        Deadline floor in seconds — EWMA latencies are milliseconds on
        small problems and a GC pause must not look like a hang.
    initial_deadline:
        Deadline used before any latency has been observed for a kind.
    ewma_alpha:
        Smoothing factor of the latency average.
    max_respawns:
        Total worker respawns allowed over the pool's lifetime; once
        spent, further failures retire the slot instead (and the pool
        degrades to serial when no slot survives).
    max_task_retries:
        Re-issues of one chunk before it runs serially in the parent.
    backoff_base, backoff_factor:
        Exponential backoff (seconds) between respawn attempts.
    drain_timeout:
        How long to wait, after the fan-out completes, for a late reply
        from a presumed-hung worker before terminating it.
    """

    deadline_factor: float = 16.0
    min_deadline: float = 2.0
    initial_deadline: float = 60.0
    ewma_alpha: float = 0.3
    max_respawns: int = 8
    max_task_retries: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    drain_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline_factor <= 1.0:
            raise ValueError("deadline_factor must exceed 1")
        if min(self.min_deadline, self.initial_deadline, self.drain_timeout) <= 0.0:
            raise ValueError("deadlines/timeouts must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.max_respawns < 0 or self.max_task_retries < 0:
            raise ValueError("retry budgets must be non-negative")


@dataclass(frozen=True)
class RecoveryEvent:
    """One observed fault or recovery action."""

    kind: str  # crash | hang | respawn | reissue | late-reply | retire | degrade | sdc
    worker: int
    phase: str
    step: int
    detail: str = ""


@dataclass
class SupervisorStats:
    """Counters + event log of one :class:`SupervisedPool` lifetime."""

    crashes: int = 0
    hangs: int = 0
    respawns: int = 0
    reissues: int = 0
    late_replies_discarded: int = 0
    serial_fallbacks: int = 0
    sdc_detected: int = 0
    degraded: bool = False
    events: List[RecoveryEvent] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"crashes={self.crashes} hangs={self.hangs} "
            f"respawns={self.respawns} reissues={self.reissues} "
            f"late_discarded={self.late_replies_discarded} "
            f"serial_fallbacks={self.serial_fallbacks} "
            f"sdc={self.sdc_detected} degraded={self.degraded}"
        )


class _TaskRec:
    """Parent-side record of one in-flight task."""

    __slots__ = ("k", "stamp", "retries", "abandoned")

    def __init__(self, k: int, stamp: int, retries: int) -> None:
        self.k = k
        self.stamp = stamp
        self.retries = retries
        self.abandoned = False


class SupervisedPool:
    """Self-healing fan-out over a :class:`WorkerPool`.

    :meth:`map` round-robins the chunks over the workers and returns
    ``[((lo, hi), reply_data), ...]`` in chunk order — the reply merge
    order is the submission order — and survives worker crashes and
    hangs.
    """

    def __init__(
        self,
        n_workers: int,
        start_method: Optional[str] = None,
        config: Optional[SupervisorConfig] = None,
        chaos=None,
        tracer: Optional[Tracer] = None,
        rank: int = 0,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.pool = WorkerPool(n_workers, start_method=start_method)
        self.chaos = chaos
        self.tracer = tracer
        self.rank = rank
        self.stats = SupervisorStats()
        self.step_index = 0
        #: optional ``(worker_slot, span_dict) -> None``; only spans from
        #: replies that were actually applied are forwarded, so abandoned
        #: and duplicate replies never pollute the merged timeline.
        self.span_sink = None
        self._ewma: Dict[str, float] = {}
        self._seq = 0
        self._respawns_left = self.config.max_respawns
        self._alive = [True] * n_workers
        self._parent_views = ArenaView()

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    @property
    def degraded(self) -> bool:
        return self.stats.degraded

    def close(self) -> None:
        self._parent_views.close()
        self.pool.close()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _event(self, kind: str, worker: int, phase: str, detail: str = "") -> None:
        self.stats.events.append(
            RecoveryEvent(kind, worker, phase, self.step_index, detail)
        )

    def _allowance(self, kind: str) -> float:
        ewma = self._ewma.get(kind)
        if ewma is None:
            return self.config.initial_deadline
        return max(self.config.min_deadline, self.config.deadline_factor * ewma)

    def _observe_latency(self, kind: str, latency: float) -> None:
        a = self.config.ewma_alpha
        prev = self._ewma.get(kind)
        self._ewma[kind] = latency if prev is None else (1.0 - a) * prev + a * latency

    def run_serial(
        self,
        kind: str,
        descriptor: dict,
        params: dict,
        lo: int,
        hi: int,
        phase: Optional[str] = None,
    ):
        """Execute one chunk in the parent (degradation / recompute path)."""
        self.stats.serial_fallbacks += 1
        self._parent_views.refresh(descriptor)
        ctx = (
            self.tracer.phase(phase, State.USEFUL, self.rank)
            if self.tracer is not None and phase is not None
            else _null()
        )
        with ctx:
            return TASK_HANDLERS[kind](self._parent_views, params, lo, hi)

    # ------------------------------------------------------------------
    def map(
        self,
        kind: str,
        chunks: Sequence[Tuple[int, int]],
        descriptor: dict,
        params: dict,
        *,
        phase: str = "?",
        verify: Sequence[Tuple[str, bool]] = (),
    ) -> List[Tuple[Tuple[int, int], Any]]:
        """Fan chunks out with supervision; gather replies in chunk order."""
        chunks = [(int(lo), int(hi)) for lo, hi in chunks]
        results: List[Any] = [None] * len(chunks)
        crcs: Dict[int, Dict[str, int]] = {}
        verify_fields = tuple(name for name, _ in verify)
        if self.stats.degraded or not any(self._alive):
            for k, (lo, hi) in enumerate(chunks):
                results[k] = self.run_serial(
                    kind, descriptor, params, lo, hi, phase=phase
                )
        else:
            self._map_supervised(
                kind, chunks, descriptor, params, phase, verify_fields, results, crcs
            )
        if verify:
            self._verify(kind, chunks, descriptor, params, phase, verify, crcs)
        return list(zip(chunks, results))

    # ------------------------------------------------------------------
    def _map_supervised(
        self,
        kind: str,
        chunks: List[Tuple[int, int]],
        descriptor: dict,
        params: dict,
        phase: str,
        verify_fields: Tuple[str, ...],
        results: List[Any],
        crcs: Dict[int, Dict[str, int]],
    ) -> None:
        cfg = self.config
        n_w = self.pool.n_workers
        outstanding: List[Deque[_TaskRec]] = [deque() for _ in range(n_w)]
        deadlines: List[Optional[float]] = [None] * n_w
        head_start: List[float] = [0.0] * n_w
        tainted = [False] * n_w
        done = [False] * len(chunks)
        serial_queue: List[int] = []

        def submit(k: int, retries: int, worker: int) -> bool:
            lo, hi = chunks[k]
            task = {
                "kind": kind,
                "arena": descriptor,
                "params": params,
                "lo": lo,
                "hi": hi,
                "stamp": self._seq,
                "phase": phase,
            }
            if verify_fields:
                task["verify"] = verify_fields
            if self.chaos is not None:
                directives = self.chaos.directives(
                    step=self.step_index, phase=phase, worker=worker, chunk=k
                )
                if directives:
                    task["chaos"] = directives
            try:
                self.pool.submit(worker, task)
            except (BrokenPipeError, OSError):
                return False
            rec = _TaskRec(k, self._seq, retries)
            self._seq += 1
            outstanding[worker].append(rec)
            if len(outstanding[worker]) == 1:
                head_start[worker] = time.monotonic()
                deadlines[worker] = head_start[worker] + self._allowance(kind)
            return True

        def reissue(k: int, retries: int, exclude: int) -> None:
            """Route a lost chunk to the healthiest worker, else serial."""
            if retries > cfg.max_task_retries:
                serial_queue.append(k)
                return
            candidates = [
                w
                for w in range(n_w)
                if self._alive[w] and not tainted[w] and w != exclude
            ]
            candidates.sort(key=lambda w: len(outstanding[w]))
            for w in candidates:
                if submit(k, retries, w):
                    self.stats.reissues += 1
                    self._event("reissue", w, phase, f"chunk {k} retry {retries}")
                    return
                self._handle_dead(w, phase, reissue_lost=False)
            serial_queue.append(k)

        lost_on_death: List[Tuple[int, int]] = []

        def collect_lost(worker: int) -> None:
            for rec in outstanding[worker]:
                if not rec.abandoned and not done[rec.k]:
                    lost_on_death.append((rec.k, rec.retries + 1))
            outstanding[worker].clear()
            deadlines[worker] = None
            tainted[worker] = False

        def respawn_or_retire(worker: int, phase: str) -> None:
            if self._respawns_left > 0:
                attempt = self.config.max_respawns - self._respawns_left
                self._respawns_left -= 1
                delay = cfg.backoff_base * cfg.backoff_factor ** attempt
                ctx = (
                    self.tracer.phase(phase, State.RECOVERY, self.rank)
                    if self.tracer is not None
                    else _null()
                )
                with ctx:
                    time.sleep(delay)
                    self.pool.respawn(worker)
                self.stats.respawns += 1
                self._event("respawn", worker, phase, f"backoff {delay:.3f}s")
            else:
                self.pool.terminate_worker(worker)
                self._alive[worker] = False
                self._event("retire", worker, phase, "respawn budget exhausted")
                if not any(self._alive):
                    self.stats.degraded = True
                    self._event("degrade", worker, phase, "no workers left")

        def handle_dead(worker: int, phase: str, reissue_lost: bool = True) -> None:
            self.stats.crashes += 1
            self._event("crash", worker, phase)
            collect_lost(worker)
            respawn_or_retire(worker, phase)
            if reissue_lost:
                while lost_on_death:
                    k, retries = lost_on_death.pop()
                    reissue(k, retries, exclude=-1)

        self._handle_dead = handle_dead  # reachable from submit failures

        # Initial round-robin dispatch over live workers.
        live = [w for w in range(n_w) if self._alive[w]]
        for k in range(len(chunks)):
            w = live[k % len(live)]
            if not submit(k, 0, w):
                handle_dead(w, phase)
                reissue(k, 1, exclude=w)
                live = [w for w in range(n_w) if self._alive[w]]
                if not live:
                    serial_queue.extend(
                        kk for kk in range(k + 1, len(chunks))
                    )
                    break

        # Event loop: multiplex replies, sentinels and deadlines until all
        # chunks are done AND no stamp is outstanding (late repliers are
        # drained or their workers retired — nothing can write into the
        # next arena cycle).
        while True:
            while serial_queue:
                k = serial_queue.pop()
                if not done[k]:
                    results[k] = self.run_serial(
                        kind, descriptor, params, *chunks[k], phase=phase
                    )
                    done[k] = True
            busy = [w for w in range(n_w) if outstanding[w]]
            if all(done) and not busy:
                break
            if not busy:
                # Chunks missing but nothing in flight: degraded mid-loop.
                serial_queue.extend(k for k in range(len(chunks)) if not done[k])
                continue

            now = time.monotonic()
            next_deadline = min(deadlines[w] for w in busy if deadlines[w] is not None)
            timeout = max(0.0, next_deadline - now)
            waitables: Dict[object, Tuple[str, int]] = {}
            for w in busy:
                waitables[self.pool.connection(w)] = ("conn", w)
                waitables[self.pool.sentinel(w)] = ("sentinel", w)
            ready = mpconnection.wait(list(waitables), timeout=timeout)

            crashed: List[int] = []
            for obj in ready:
                what, w = waitables[obj]
                if what == "sentinel":
                    # The pipe EOF may land in the same batch — dedupe, or
                    # the second handle_dead would tear down the healthy
                    # replacement worker.
                    if w not in crashed:
                        crashed.append(w)
                    continue
                # Drain every buffered reply on this pipe.
                try:
                    while obj.poll():
                        reply = obj.recv()
                        self._consume(
                            reply, w, kind, phase, outstanding, deadlines,
                            head_start, tainted, done, results, crcs,
                        )
                except (EOFError, OSError):
                    if w not in crashed:
                        crashed.append(w)
            for w in crashed:
                if outstanding[w] or self._alive[w]:
                    handle_dead(w, phase)

            # Deadline sweep (also covers the no-ready timeout case).
            now = time.monotonic()
            for w in range(n_w):
                if not outstanding[w] or deadlines[w] is None or now < deadlines[w]:
                    continue
                if not tainted[w]:
                    # Presumed hung: abandon everything queued on this
                    # worker and re-issue elsewhere; keep draining its
                    # pipe so the late replies are discarded, not applied.
                    self.stats.hangs += 1
                    self._event(
                        "hang", w, phase,
                        f"deadline {self._allowance(kind):.3f}s exceeded",
                    )
                    tainted[w] = True
                    deadlines[w] = now + cfg.drain_timeout
                    for rec in outstanding[w]:
                        rec.abandoned = True
                        if not done[rec.k]:
                            reissue(rec.k, rec.retries + 1, exclude=w)
                else:
                    # Drain window expired too: treat as dead.
                    handle_dead(w, phase)

    # ------------------------------------------------------------------
    def _consume(
        self, reply, w, kind, phase, outstanding, deadlines, head_start,
        tainted, done, results, crcs,
    ) -> None:
        if not outstanding[w]:  # pragma: no cover - protocol violation
            raise RuntimeError(f"unexpected reply from worker {w}")
        rec = outstanding[w].popleft()
        stamp = reply.get("stamp")
        if stamp is not None and stamp != rec.stamp:  # pragma: no cover
            raise RuntimeError(
                f"worker {w} reply stamp {stamp} != expected {rec.stamp}"
            )
        now = time.monotonic()
        if rec.abandoned:
            self.stats.late_replies_discarded += 1
            self._event("late-reply", w, phase, f"chunk {rec.k} discarded")
        else:
            if not reply["ok"]:
                raise RuntimeError(
                    f"pool worker {w} failed:\n{reply['error']}"
                )
            self._observe_latency(kind, now - head_start[w])
            if not done[rec.k]:
                results[rec.k] = reply["data"]
                done[rec.k] = True
                if "crc" in reply:
                    crcs[rec.k] = reply["crc"]
                if self.span_sink is not None and "span" in reply:
                    self.span_sink(w, reply["span"])
        if outstanding[w]:
            head_start[w] = now
            if not tainted[w]:
                deadlines[w] = now + self._allowance(kind)
        else:
            deadlines[w] = None
            tainted[w] = False  # clean protocol state again

    # ------------------------------------------------------------------
    def _verify(
        self,
        kind: str,
        chunks: List[Tuple[int, int]],
        descriptor: dict,
        params: dict,
        phase: str,
        verify: Sequence[Tuple[str, bool]],
        crcs: Dict[int, Dict[str, int]],
    ) -> None:
        """Per-phase SDC pass: CRC + plausibility scan of output slices.

        A chunk whose shared-memory output fails either check is
        recomputed serially from the (pristine) arena inputs — detection
        plus recovery, not just detection.
        """
        from ..resilience.sdc import scan_phase_output

        self._parent_views.refresh(descriptor)

        def scan(k: int, with_crc: bool) -> List[str]:
            lo, hi = chunks[k]
            findings: List[str] = []
            for name, positive in verify:
                arr = self._parent_views.view(name)[lo:hi]
                findings += scan_phase_output(name, arr, positive=positive)
                if with_crc and k in crcs and name in crcs[k]:
                    here = zlib.crc32(np.ascontiguousarray(arr).tobytes())
                    if here != crcs[k][name]:
                        findings.append(
                            f"checksum mismatch on phase output {name!r}"
                        )
            return findings

        for k in range(len(chunks)):
            findings = scan(k, with_crc=True)
            if not findings:
                continue
            self.stats.sdc_detected += 1
            self._event("sdc", -1, phase, "; ".join(findings))
            lo, hi = chunks[k]
            self.run_serial(kind, descriptor, params, lo, hi, phase=phase)
            if scan(k, with_crc=False):
                raise RuntimeError(
                    f"phase {phase} chunk {k} still corrupt after serial "
                    f"recompute: {findings}"
                )


class _null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
