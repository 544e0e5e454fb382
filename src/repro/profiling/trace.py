"""Extrae-like execution tracing.

Figure 4 of the paper is a Paraver view of an Extrae trace: per
(rank, thread) rows of colored states — computing (blue), MPI collective
(orange), thread synchronization (red), fork/join (yellow), idle (black) —
with the phases of Algorithm 1 labelled A-J.  This module records exactly
that information: timestamped, phase-labelled state intervals per rank and
thread.  Serial runs fill it with wall-clock timings; the simulated
cluster fills it with modelled times.  The POP metrics (Section 5.2) and
the timeline renderer both consume this one structure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import ContextManager, Dict, Iterator, List, Tuple

__all__ = ["State", "TraceEvent", "Tracer"]


class State(Enum):
    """Execution states, matching the Figure 4 color legend.

    On a measured run ``FORK_JOIN`` is the driver handing a phase's row
    slices to its threads and waiting for them
    (:mod:`repro.core.phase_executor`).  ``RECOVERY`` extends the legend
    for fault-tolerance work: the step guard's rollback-and-retry rungs
    and the checkpoint manager's writes.
    """

    USEFUL = "useful"  # blue: computing phases
    MPI = "mpi"  # orange: MPI (collective) communication
    SYNC = "sync"  # red: thread synchronization
    FORK_JOIN = "fork-join"  # yellow: thread fork/join
    IDLE = "idle"  # black: idle threads
    RECOVERY = "recovery"  # step guard rollback/retry, checkpoint writes
    STEP = "step"  # observability: whole-step container span (not exclusive)


@dataclass(frozen=True)
class TraceEvent:
    """One state interval on one (rank, thread) row.

    ``step``, ``depth`` and ``label`` are span attribution added by the
    observability layer (:mod:`repro.observability`): the driver step the
    interval belongs to (``-1`` when unattributed), the nesting depth on
    the event's row (step container = 0; phase spans and merged
    row-slice spans = 1; deeper nesting as recorded) and an optional
    free-form detail label (e.g. ``density[0:512)``).  The
    modeled-cluster path leaves them at their defaults.
    """

    rank: int
    thread: int
    phase: str  # Algorithm-1 phase letter "A".."J" (or a custom label)
    state: State
    start: float
    duration: float
    step: int = -1
    depth: int = 0
    label: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Tracer:
    """Append-only event collector with per-(rank, thread) clocks."""

    events: List[TraceEvent] = field(default_factory=list)
    _clocks: Dict[Tuple[int, int], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Modeled-time interface (simulated cluster)
    # ------------------------------------------------------------------
    def record(
        self,
        rank: int,
        phase: str,
        state: State,
        duration: float,
        thread: int = 0,
        start: float | None = None,
    ) -> TraceEvent:
        """Record an interval; ``start`` defaults to the row's clock, and
        the clock advances to the interval's end."""
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        key = (rank, thread)
        if start is None:
            start = self._clocks.get(key, 0.0)
        event = TraceEvent(rank, thread, phase, state, start, duration)
        self.events.append(event)
        self._clocks[key] = max(self._clocks.get(key, 0.0), event.end)
        return event

    def advance_to(self, rank: int, t: float, thread: int = 0) -> None:
        """Move a row's clock forward (e.g. to a barrier release time)."""
        key = (rank, thread)
        self._clocks[key] = max(self._clocks.get(key, 0.0), t)

    def clock(self, rank: int, thread: int = 0) -> float:
        return self._clocks.get((rank, thread), 0.0)

    # ------------------------------------------------------------------
    # Wall-clock interface (serial driver)
    # ------------------------------------------------------------------
    @contextmanager
    def phase(
        self,
        phase: str,
        state: State = State.USEFUL,
        rank: int = 0,
        thread: int = 0,
    ) -> Iterator[None]:
        """Context manager measuring a phase with ``perf_counter``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(rank, phase, state, time.perf_counter() - t0, thread)

    # ------------------------------------------------------------------
    # Observability hooks (no-ops here; repro.observability overrides)
    # ------------------------------------------------------------------
    def set_step(self, index: int) -> None:
        """Declare the driver step subsequent intervals belong to."""

    def step_span(self, index: int, rank: int = 0) -> ContextManager[None]:
        """Container span wrapping one whole driver step."""
        return nullcontext()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> List[int]:
        return sorted({e.rank for e in self.events})

    def runtime(self) -> float:
        """Trace end time (max event end over all rows)."""
        return max((e.end for e in self.events), default=0.0)

    def time_in_state(self, rank: int, state: State) -> float:
        """Total time rank spent in a state (all threads, all phases)."""
        return sum(
            e.duration for e in self.events if e.rank == rank and e.state is state
        )

    def time_in_phase(self, phase: str, rank: int | None = None) -> float:
        """Total time in a phase, optionally restricted to one rank."""
        return sum(
            e.duration
            for e in self.events
            if e.phase == phase and (rank is None or e.rank == rank)
        )

    def phase_letters(self) -> List[str]:
        """Distinct phase labels in first-appearance order."""
        seen: List[str] = []
        for e in self.events:
            if e.phase not in seen:
                seen.append(e.phase)
        return seen
