"""Extrae-like execution tracing: one tracer for modeled and measured time.

Figure 4 of the paper is a Paraver view of an Extrae trace: per
(rank, thread) rows of colored states — computing (blue), MPI collective
(orange), thread synchronization (red), fork/join (yellow), idle (black) —
with the phases of Algorithm 1 labelled A-J.  :class:`Tracer` records
exactly that information, from two sources:

* the simulated cluster fills it with *modeled* intervals through
  :meth:`Tracer.record` on per-row clocks (never dropped, always at
  depth 0);
* the driver, the phase executor, the step guard and the checkpoint
  manager fill it with *measured* wall-clock spans through
  :meth:`Tracer.phase` — nested (step → phase A-J → inner span), with
  the driver step index, the nesting depth and an optional detail label.

The POP metrics (:mod:`repro.observability.pop`), the timeline renderer
and the exporters consume both kinds of trace identically.

Rows follow the Figure-4 convention: the driver records on
``(rank, thread=0)``; the span of row slice ``k`` of a fan-out lands on
``(rank, thread=k + 1)``, so one timeline shows the driver's
``FORK_JOIN`` intervals, the threads' compute (``USEFUL``) and the
guard's ``RECOVERY`` work side by side.  Only the driver thread writes
the tracer: a slice times itself on its thread and the driver records it
after the join (:meth:`Tracer.record_span`).

Clock model: spans are timed with ``time.perf_counter`` and shifted onto
a lazy origin — the start of the first recorded span.  Raw
``perf_counter`` stamps taken on another thread and handed to
:meth:`record_span` live in the same clock domain as the driver's and
need only the origin shift.

:class:`NullTracer` is the disabled path: every instrumentation call
returns a shared no-op context or does nothing, so tracing-off costs one
attribute lookup per call and allocates nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "State",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "make_tracer",
    "self_times",
]

_NULL_CTX = nullcontext()


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
    STEP = "step"  # whole-step container span (not exclusive)


@dataclass(frozen=True)
class TraceEvent:
    """One state interval on one (rank, thread) row.

    ``step`` is the driver step the interval belongs to (``-1`` when
    unattributed), ``depth`` the nesting depth on the event's row (step
    container = 0; phase spans and merged row-slice spans = 1; deeper
    nesting as recorded) and ``label`` an optional free-form detail
    (e.g. ``density[0:512)``).  Modeled intervals leave them at their
    defaults.
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
    """Append-only event collector with per-(rank, thread) clocks.

    Modeled intervals (:meth:`record`) are always kept; measured spans
    (:meth:`phase`, :meth:`record_span`) stop being stored once
    ``max_events`` events are held and are counted in ``dropped``
    instead, bounding memory on very long runs.
    """

    events: List[TraceEvent] = field(default_factory=list)
    max_events: int = 1_000_000
    #: Spans discarded after ``max_events`` was reached.
    dropped: int = 0
    _clocks: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)
    _origin: Optional[float] = field(default=None, repr=False)
    _step: int = field(default=-1, repr=False)
    _stacks: Dict[Tuple[int, int], List[str]] = field(
        default_factory=dict, repr=False
    )

    @property
    def enabled(self) -> bool:
        return True

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
    # Wall-clock interface (driver spans)
    # ------------------------------------------------------------------
    def set_step(self, index: int) -> None:
        """Declare the driver step subsequent spans belong to."""
        self._step = int(index)

    def _relative(self, t: float) -> float:
        if self._origin is None:
            self._origin = t
        return t - self._origin

    def _append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)
        key = (event.rank, event.thread)
        self._clocks[key] = max(self._clocks.get(key, 0.0), event.end)

    @contextmanager
    def phase(
        self,
        phase: str,
        state: State = State.USEFUL,
        rank: int = 0,
        thread: int = 0,
    ) -> Iterator[None]:
        """Measure a span; nests under any span already open on this row."""
        t0 = time.perf_counter()
        start = self._relative(t0)
        stack = self._stacks.setdefault((rank, thread), [])
        depth = len(stack)
        stack.append(phase)
        try:
            yield
        finally:
            stack.pop()
            self._append(
                TraceEvent(
                    rank,
                    thread,
                    phase,
                    state,
                    start,
                    time.perf_counter() - t0,
                    step=self._step,
                    depth=depth,
                )
            )

    def step_span(self, index: int, rank: int = 0) -> ContextManager[None]:
        """Whole-step container span (``State.STEP``, depth 0)."""
        self.set_step(index)
        return self.phase(f"step-{index}", State.STEP, rank)

    def record_span(
        self,
        phase: str,
        state: State,
        start: float,
        duration: float,
        *,
        rank: int = 0,
        thread: int = 0,
        step: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Record a pre-measured span (e.g. a row slice timed on its thread).

        ``start`` is a raw ``perf_counter`` timestamp; it is shifted onto
        the tracer's origin so merged slice spans line up with the
        driver's fork/join intervals.
        """
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self._origin is None:
            self._origin = start
        self._append(
            TraceEvent(
                rank,
                thread,
                phase,
                state,
                start - self._origin,
                duration,
                step=self._step if step is None else int(step),
                depth=1 if state is not State.STEP else 0,
                label=label,
            )
        )

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


class NullTracer(Tracer):
    """Zero-overhead disabled tracer: records nothing, measures nothing."""

    @property
    def enabled(self) -> bool:
        return False

    def set_step(self, index: int) -> None:
        pass

    def phase(self, *args, **kwargs) -> ContextManager[None]:
        return _NULL_CTX

    def step_span(self, index: int, rank: int = 0) -> ContextManager[None]:
        return _NULL_CTX

    def record_span(self, *args, **kwargs) -> None:
        pass


def make_tracer(config=None) -> Tracer:
    """Tracer matching an :class:`~repro.observability.config
    .ObservabilityConfig` (``None`` → enabled defaults)."""
    if config is None or config.enabled:
        return Tracer()
    return NullTracer()


def self_times(events: Sequence[TraceEvent]) -> List[float]:
    """Each event's duration minus that of its direct children.

    A child is an event on the same ``(rank, thread)`` row, one level
    deeper, whose interval lies inside the parent's — the nesting
    :meth:`Tracer.phase` records.  One stack pass per row, in start
    order.  Events with no children (every modeled interval) keep their
    duration unchanged.
    """
    rows: Dict[Tuple[int, int], List[int]] = {}
    for i, e in enumerate(events):
        rows.setdefault((e.rank, e.thread), []).append(i)
    out = [e.duration for e in events]
    for idx in rows.values():
        idx.sort(key=lambda i: (events[i].start, events[i].depth))
        stack: List[int] = []
        for i in idx:
            e = events[i]
            while stack and (
                events[stack[-1]].depth >= e.depth
                or events[stack[-1]].end < e.start
            ):
                stack.pop()
            if stack and events[stack[-1]].depth == e.depth - 1:
                out[stack[-1]] -= e.duration
            stack.append(i)
    return out
