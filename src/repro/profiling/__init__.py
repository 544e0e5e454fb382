"""Extrae-like tracing, POP efficiency metrics, Figure-4 timeline render.

The paper's performance methodology (Section 5.2): trace per-rank states,
compute the POP efficiency hierarchy, and visualize phase/state timelines.

The measured-span side of the story (structured tracers, phase-thread
span merging, Chrome-trace/JSONL exporters, POP from real threaded runs)
lives in :mod:`repro.observability`; this package keeps the modeled
trace containers and analysis that the simulated cluster uses.
"""

from .metrics import PopMetrics, compute_pop_metrics
from .timeline import STATE_CHARS, render_timeline
from .trace import State, TraceEvent, Tracer

__all__ = [
    "State",
    "TraceEvent",
    "Tracer",
    "PopMetrics",
    "compute_pop_metrics",
    "STATE_CHARS",
    "render_timeline",
]
