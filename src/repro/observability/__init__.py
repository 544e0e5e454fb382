"""Unified observability: spans, counters, exporters, measured POP metrics.

Section 5.2 of the paper treats observability as a first-class
deliverable of the mini-app spec — SPHYNX's scaling loss is diagnosed
from an Extrae trace and the POP efficiency hierarchy, not from guesses.
This package is the one instrumentation layer every execution path
shares:

* :class:`Tracer` — the one trace model: modeled intervals on per-row
  clocks (the simulated cluster) and nested wall-clock spans (step →
  phase A-J → row slice) with rank/thread attribution (real runs).
  :class:`NullTracer` is the zero-overhead disabled variant;
  :func:`self_times` gives each span's time net of its children.
* Exporters — Chrome ``trace_event`` JSON (loadable in Perfetto /
  ``chrome://tracing``) and JSONL for the benchmark harness.
* :func:`pop_from_events` — the paper's POP efficiency metrics of any
  trace (NaN-safe), so real threaded runs and the simulated cluster
  feed one metrics pipeline; :func:`render_timeline` draws Figure 4.
* :class:`RunReport` — the consolidated, dict-convertible stats object
  behind :meth:`repro.core.simulation.Simulation.report`: the
  Verlet-cache, h-iteration, gravity, checkpoint and guard counters, one
  section each.

Everything is on by default at span granularity; the measured overhead
budget is ≤ 2 % of step time (enforced by
``benchmarks/bench_observability_micro.py``) and ~0 when disabled via
:class:`NullTracer`.
"""

from .._lazy import lazy_exports

__all__ = [
    "ObservabilityConfig",
    "State",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "make_tracer",
    "self_times",
    "RunReport",
    "RunLedger",
    "RunRecord",
    "host_fingerprint",
    "fingerprint_id",
    "code_version",
    "record_from_simulation",
    "format_gravity",
    "format_neighbor_cache",
    "PopMetrics",
    "pop_from_events",
    "STATE_CHARS",
    "render_timeline",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("ObservabilityConfig",),
    ".export": ("to_chrome_trace", "to_jsonl", "write_chrome_trace", "write_jsonl"),
    ".ledger": (
        "RunLedger", "RunRecord", "code_version", "fingerprint_id",
        "host_fingerprint", "record_from_simulation",
    ),
    ".pop": ("PopMetrics", "pop_from_events"),
    ".report": ("RunReport", "format_gravity", "format_neighbor_cache"),
    ".timeline": ("STATE_CHARS", "render_timeline"),
    ".tracer": (
        "NullTracer", "State", "TraceEvent", "Tracer", "make_tracer",
        "self_times",
    ),
})
