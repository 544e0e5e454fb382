"""Observability knobs (part of the consolidated :class:`RunConfig`)."""

from __future__ import annotations

import uuid
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ObservabilityConfig", "new_run_id"]


def new_run_id(scenario: str) -> str:
    """Unique, human-sortable run id (``<scenario>-<hex8>``): what the run
    ledger and the job manager key a run by."""
    return f"{scenario}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class ObservabilityConfig:
    """Instrumentation policy for one :class:`~repro.core.simulation.Simulation`.

    Parameters
    ----------
    enabled:
        ``True`` (default) gives the driver a :class:`~repro.observability
        .tracer.Tracer` recording wall-clock phase spans (and, on a
        threaded run, the spans of its row slices); ``False``
        installs the no-op :class:`~repro.observability.tracer.NullTracer`
        (every instrumentation call collapses to a constant — the
        tracing-off path adds no per-pair allocations and ~0 time).
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
    chrome_trace_path: Optional[str] = None
    jsonl_path: Optional[str] = None
    ledger_path: Optional[str] = None

    def with_(self, **kwargs) -> "ObservabilityConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
