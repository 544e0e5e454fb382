"""Per-job event history with replay + live fan-out.

Every job keeps one ordered :class:`JobEventLog`.  Publishing appends
to the history and pushes to every live subscriber queue; subscribing
first replays the full history, then streams live — so a consumer that
attaches after the job started still sees ``queued, started, step(1),
...`` in order, and any number of subscribers observe the *same*
sequence (the fan-out-ordering guarantee the test suite asserts).

A terminal event (``done`` / ``failed`` / ``cancelled``) closes the
stream: subscribers receive it and then a ``None`` sentinel.

Any thread may publish or subscribe: the log's own lock makes each
``publish`` and each subscriber's replay-plus-registration atomic.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

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
        self._lock = threading.Lock()
        self._subscribers: List[queue.SimpleQueue] = []

    def publish(self, type: str, **payload) -> Optional[JobEvent]:
        """Append one event and fan it out; returns it (None if dropped).

        Progress events past ``max_events`` are counted in ``dropped``
        rather than stored (bounded memory on very long jobs); terminal
        events always land.
        """
        with self._lock:
            if self.closed:
                return None
            full = len(self.events) >= self.max_events
            if full and type not in TERMINAL_EVENTS:
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
                q.put(event)
            if type in TERMINAL_EVENTS:
                self.closed = True
                for q in self._subscribers:
                    q.put(None)
                self._subscribers.clear()
        return event

    def subscribe(self) -> Iterator[JobEvent]:
        """Replay the history, then block on live events until the end.

        The replay snapshot and the live registration are taken under the
        log's lock, so no event is missed or duplicated at the seam.
        """
        with self._lock:
            history = list(self.events)
            q: Optional[queue.SimpleQueue] = None
            if not self.closed:
                q = queue.SimpleQueue()
                self._subscribers.append(q)
        yield from history
        if q is None:
            return
        try:
            while True:
                event = q.get()
                if event is None:
                    return
                yield event
        finally:
            with self._lock:
                if q in self._subscribers:
                    self._subscribers.remove(q)
