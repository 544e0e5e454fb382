"""Wall-clock span tracer with nesting and thread attribution.

:class:`SpanTracer` is a drop-in superset of the modeled-cluster
:class:`~repro.profiling.trace.Tracer`: every existing call site
(``tracer.phase(...)`` in the driver, the phase executor, the step guard
and the checkpoint manager) keeps working unchanged, but the recorded
events carry the span attribution the observability layer needs — real
wall-clock starts on one shared time origin, the driver step index, the
nesting depth within the step and an optional detail label.

Rows follow the Figure-4 convention: the driver records on
``(rank, thread=0)``; the spans of the row slices a phase thread ran land
on ``(rank, thread=lane + 1)``, so one timeline shows the driver's
``FORK_JOIN`` intervals, the threads' compute (``USEFUL``) and the
guard's ``RECOVERY`` work side by side.  Only the driver thread writes
the tracer: a thread times its slices and the driver records them after
the join (:meth:`SpanTracer.record_span`).

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
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple

from ..profiling.trace import State, TraceEvent, Tracer

__all__ = ["SpanTracer", "NullTracer", "make_tracer"]

_NULL_CTX = nullcontext()


@dataclass
class SpanTracer(Tracer):
    """Nested-span wall-clock tracer (the on-by-default instrumentation).

    Inherits the event store and every query of the base tracer, so the
    POP metrics, the timeline renderer and the exporters consume
    simulated and measured traces identically.
    """

    max_events: int = 1_000_000
    #: Spans discarded after ``max_events`` was reached.
    dropped: int = 0
    _origin: Optional[float] = field(default=None, repr=False)
    _step: int = field(default=-1, repr=False)
    _stacks: Dict[Tuple[int, int], List[str]] = field(
        default_factory=dict, repr=False
    )

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def set_step(self, index: int) -> None:
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

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
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


class NullTracer(SpanTracer):
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


def make_tracer(config=None) -> SpanTracer:
    """Tracer matching an :class:`~repro.observability.config
    .ObservabilityConfig` (``None`` → enabled defaults)."""
    if config is None or config.enabled:
        return SpanTracer(
            max_events=getattr(config, "max_events", 1_000_000)
        )
    return NullTracer()
