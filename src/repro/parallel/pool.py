"""Persistent process pool with shared-memory task fan-out.

One long-lived worker process per slot, each holding a duplex pipe to the
parent.  A task is a small picklable dict — kind, arena descriptor, row
range, scalar parameters — and all bulk data travels through the
:class:`~repro.parallel.shm.ShmArena`.  Workers execute the kind's
handler from :data:`TASK_HANDLERS`, write bulk results into arena output
fields at their disjoint row slice, and reply with scalars only.

The fan-out itself — round-robin the row chunks (:func:`row_chunks`,
pair-balanced when CSR offsets are given) over the workers, gather
replies in submission order, survive worker death — lives one layer up,
in :class:`~repro.parallel.supervisor.SupervisedPool`; this module
supplies what it needs: a ``stamp`` echoed verbatim in every reply (so
late replies from presumed-dead workers are identifiable), per-slot
:meth:`WorkerPool.respawn`, and deterministic worker-side fault injection
driven by an optional ``chaos`` entry in the task dict (see
:mod:`repro.resilience.chaos`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
import zlib
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from .shm import ArenaView

__all__ = ["WorkerPool", "row_chunks"]

#: kind -> handler(views: ArenaView, params: dict, lo: int, hi: int) -> dict
TASK_HANDLERS: Dict[str, Callable[..., dict]] = {}


def register_task(kind: str):
    """Decorator adding a worker-side task handler under ``kind``."""

    def _register(fn):
        TASK_HANDLERS[kind] = fn
        return fn

    return _register


def _flip_output_bit(views, field: str, lo: int, hi: int, index: int, bit: int) -> None:
    """Chaos SDC injection: flip one bit inside an output row slice."""
    flat = views.view(field)[lo:hi].reshape(-1)
    if flat.size == 0:
        return
    cell = flat[index % flat.size : index % flat.size + 1].view(np.uint64)
    cell ^= np.uint64(1) << np.uint64(bit % 64)


def _worker_main(conn) -> None:
    """Worker loop: recv task, execute handler, reply; ``None`` stops."""
    # Handlers live in repro.parallel.executor; import inside the worker so
    # spawn-start contexts (no inherited module state) also find them.
    from . import executor  # noqa: F401  (populates TASK_HANDLERS)

    views = ArenaView()
    while True:
        try:
            task = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if task is None:
            break
        chaos = task.get("chaos") or {}
        if chaos.get("kill"):
            # Injected fail-stop: die before doing any work; the reply is
            # lost and the supervisor must detect and re-issue.
            os._exit(1)
        reply: Dict[str, Any]
        try:
            views.refresh(task["arena"])
            handler = TASK_HANDLERS[task["kind"]]
            t0 = time.perf_counter()
            data = handler(views, task["params"], task["lo"], task["hi"])
            dur = time.perf_counter() - t0
            reply = {"ok": True, "data": data}
            # Span envelope: perf_counter is CLOCK_MONOTONIC system-wide
            # on Linux, so the parent can place this interval on its own
            # timeline with nothing but an origin shift.
            reply["span"] = {
                "t0": t0,
                "dur": dur,
                "kind": task["kind"],
                "phase": task.get("phase", "?"),
                "lo": task["lo"],
                "hi": task["hi"],
            }
            if task.get("verify"):
                # CRC the output slices *after* computing so the parent can
                # detect corruption between this write and its read.
                reply["crc"] = {
                    name: zlib.crc32(
                        np.ascontiguousarray(
                            views.view(name)[task["lo"] : task["hi"]]
                        ).tobytes()
                    )
                    for name in task["verify"]
                }
            for field, index, bit in chaos.get("flip", ()):
                # Injected SDC: corrupt the shared-memory output *after*
                # the checksum was taken (models a torn/late write).
                _flip_output_bit(views, field, task["lo"], task["hi"], index, bit)
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc()}
        if "stamp" in task:
            reply["stamp"] = task["stamp"]
        if chaos.get("delay"):
            # Injected hang: reply eventually, but well past any deadline.
            time.sleep(float(chaos["delay"]))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent gave up on us
            break
    views.close()
    conn.close()


class WorkerPool:
    """Fixed set of persistent worker processes fed over pipes."""

    def __init__(self, n_workers: int, start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.n_workers = n_workers
        self._conns: List[Any] = [None] * n_workers
        self._procs: List[Any] = [None] * n_workers
        for worker in range(n_workers):
            self._spawn(worker)
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _spawn(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        self._conns[worker] = parent_conn
        self._procs[worker] = proc

    def submit(self, worker: int, task: dict) -> None:
        self._conns[worker].send(task)

    # ------------------------------------------------------------------
    # Liveness interface for the supervisor
    # ------------------------------------------------------------------
    def connection(self, worker: int):
        """Parent end of the worker's pipe (for ``connection.wait``)."""
        return self._conns[worker]

    def sentinel(self, worker: int) -> int:
        """Process sentinel: readable when the worker has exited."""
        return self._procs[worker].sentinel

    def is_alive(self, worker: int) -> bool:
        return self._procs[worker].is_alive()

    def respawn(self, worker: int) -> None:
        """Replace a dead or hung worker with a fresh process.

        The old slot is torn down unconditionally (terminate → kill), so a
        presumed-dead worker can never write into a future arena cycle.
        """
        proc, conn = self._procs[worker], self._conns[worker]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - terminate ignored
            proc.kill()
            proc.join(timeout=5.0)
        try:
            proc.close()
        except ValueError:  # pragma: no cover - still running somehow
            pass
        self._spawn(worker)

    def terminate_worker(self, worker: int) -> None:
        """Kill one worker without replacement (degraded operation)."""
        proc, conn = self._procs[worker], self._conns[worker]
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        try:
            proc.close()
        except ValueError:  # pragma: no cover
            pass
        self._procs[worker] = None
        self._conns[worker] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent shutdown: drain, join with timeout, then terminate.

        Unregisters the ``atexit`` hook on the first explicit call so a
        closed pool leaves no dangling interpreter-exit callback, and
        reaps every child (``Process.close``) so ``-W error`` runs see no
        resource warnings.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for proc in self._procs:
            if proc is None:
                continue
            if proc.is_alive():  # pragma: no cover - reap the terminated
                proc.join(timeout=1.0)
            try:
                proc.close()
            except ValueError:  # pragma: no cover
                pass
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def row_chunks(
    n_rows: int,
    n_chunks: int,
    offsets: np.ndarray | None = None,
) -> List[Tuple[int, int]]:
    """Contiguous row ranges covering ``[0, n_rows)``.

    With CSR ``offsets`` the cuts fall on ~equal *pair* counts (the unit
    of SPH work); otherwise rows are split evenly.
    """
    n_chunks = max(1, min(n_chunks, n_rows)) if n_rows else 1
    if n_rows == 0:
        return []
    if offsets is not None:
        from ..tree.neighborlist import balanced_row_slices

        return balanced_row_slices(offsets, n_chunks)
    bounds = np.linspace(0, n_rows, n_chunks + 1).astype(np.int64)
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
