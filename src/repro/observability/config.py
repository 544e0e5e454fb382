"""Observability knobs (part of the consolidated :class:`RunConfig`)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Instrumentation policy for one :class:`~repro.core.simulation.Simulation`.

    Parameters
    ----------
    enabled:
        ``True`` (default) gives the driver a :class:`~repro.observability
        .tracer.SpanTracer` recording wall-clock phase spans; ``False``
        installs the no-op :class:`~repro.observability.tracer.NullTracer`
        (every instrumentation call collapses to a constant — the
        tracing-off path adds no per-pair allocations and ~0 time).
    worker_spans:
        Record the span of every row slice a phase thread ran in the
        driver's tracer (one timeline row per thread lane).  Ignored
        when ``enabled`` is off or the run is serial.
    max_events:
        Soft cap on retained span events; once reached, further spans are
        counted in ``Tracer.dropped`` instead of stored, bounding memory
        on very long runs.
    chrome_trace_path:
        When set, :meth:`Simulation.close` exports the merged timeline as
        Chrome ``trace_event`` JSON (Perfetto-loadable) to this path.
    jsonl_path:
        When set, :meth:`Simulation.close` exports one JSON span per line
        to this path (the benchmark-harness format).
    ledger_path:
        When set, :meth:`Simulation.close` appends a run summary (phase
        aggregates, POP metrics, resolved knobs, step-time percentiles,
        recovery counters) to the durable
        :class:`~repro.observability.ledger.RunLedger` at this path.
    """

    enabled: bool = True
    worker_spans: bool = True
    max_events: int = 1_000_000
    chrome_trace_path: Optional[str] = None
    jsonl_path: Optional[str] = None
    ledger_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")

    def with_(self, **kwargs) -> "ObservabilityConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
