"""Per-job event history with replay + live fan-out.

Every job keeps one ordered :class:`JobEventLog`.  Publishing appends
to the history and pushes to every live subscriber queue; subscribing
first replays the full history, then streams live — so a consumer that
attaches after the job started still sees ``queued, started, step(1),
...`` in order, and any number of subscribers observe the *same*
sequence (the fan-out-ordering guarantee the test suite asserts).

A terminal event (``done`` / ``failed`` / ``cancelled``) closes the
stream: subscribers receive it and then a ``None`` sentinel.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional

__all__ = ["TERMINAL_EVENTS", "JobEvent", "JobEventLog"]

TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class JobEvent:
    """One ordered occurrence in a job's life.

    ``type`` is one of: ``queued``, ``started``, ``step`` (periodic
    progress with step index / simulated time / dt), ``snapshot``
    (checkpoint written), ``recovered`` (worker death absorbed),
    ``done``, ``failed``, ``cancelled``.
    """

    seq: int
    job_id: str
    type: str
    payload: Dict[str, object] = field(default_factory=dict)
    ts: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "type": self.type,
            "payload": dict(self.payload),
            "ts": self.ts,
        }


class JobEventLog:
    """Ordered event history + live subscriber fan-out for one job."""

    def __init__(self, job_id: str, *, max_events: int = 100_000):
        self.job_id = job_id
        self.max_events = int(max_events)
        self.events: List[JobEvent] = []
        self.dropped = 0
        self.closed = False
        self._seq = 0
        self._subscribers: List[asyncio.Queue] = []

    def publish(self, type: str, **payload) -> Optional[JobEvent]:
        """Append one event and fan it out; returns it (None if dropped).

        Must be called from the owning event loop, except before anyone
        can subscribe: admission publishes a new job's ``queued`` (and a
        cache hit's ``done``) on the submitting thread, under the
        manager's lock, before the job's handle exists.  Progress events
        past ``max_events`` are counted in ``dropped`` rather than stored
        (bounded memory on very long jobs); terminal events always land.
        """
        if self.closed:
            return None
        if len(self.events) >= self.max_events and type not in TERMINAL_EVENTS:
            self.dropped += 1
            return None
        event = JobEvent(
            seq=self._seq,
            job_id=self.job_id,
            type=type,
            payload=payload,
            ts=time.time(),
        )
        self._seq += 1
        self.events.append(event)
        for q in self._subscribers:
            q.put_nowait(event)
        if type in TERMINAL_EVENTS:
            self.closed = True
            for q in self._subscribers:
                q.put_nowait(None)
            self._subscribers.clear()
        return event

    async def subscribe(self) -> AsyncIterator[JobEvent]:
        """Replay the history, then stream live until the terminal event.

        The replay snapshot and the live registration happen atomically
        with respect to ``publish`` (single event loop, no await between
        them), so no event is missed or duplicated at the seam.
        """
        q: Optional[asyncio.Queue] = None
        if not self.closed:
            q = asyncio.Queue()
            self._subscribers.append(q)
        history = list(self.events)
        for event in history:
            yield event
        if q is None:
            return
        try:
            while True:
                event = await q.get()
                if event is None:
                    return
                yield event
        finally:
            if q in self._subscribers:
                self._subscribers.remove(q)
