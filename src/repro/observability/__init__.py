"""Unified observability: spans, counters, exporters, measured POP metrics.

Section 5.2 of the paper treats observability as a first-class
deliverable of the mini-app spec — SPHYNX's scaling loss is diagnosed
from an Extrae trace and the POP efficiency hierarchy, not from guesses.
This package is the one instrumentation layer every execution path
shares:

* :class:`SpanTracer` — wall-clock tracer emitting nested spans
  (step → phase A-J → row slice) with rank/thread attribution; a
  drop-in superset of the modeled-cluster
  :class:`~repro.profiling.trace.Tracer`.  :class:`NullTracer` is the
  zero-overhead disabled variant.
* :class:`MetricsRegistry` — flat, namespaced counters absorbing the
  Verlet-cache, gravity, checkpoint and guard stats.
* Exporters — Chrome ``trace_event`` JSON (loadable in Perfetto /
  ``chrome://tracing``) and JSONL for the benchmark harness.
* :func:`pop_from_events` — the paper's POP efficiency metrics computed
  from *measured* spans (NaN-safe), so real threaded runs and the
  simulated cluster feed one metrics pipeline.
* :class:`RunReport` — the consolidated, dict-convertible stats object
  behind :meth:`repro.core.simulation.Simulation.report`.

Everything is on by default at span granularity; the measured overhead
budget is ≤ 2 % of step time (enforced by
``benchmarks/bench_observability_micro.py``) and ~0 when disabled via
:class:`NullTracer`.
"""

from .config import ObservabilityConfig
from .export import (
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .ledger import (
    RunLedger,
    RunRecord,
    code_version,
    fingerprint_id,
    host_fingerprint,
    record_from_simulation,
)
from .pop import pop_from_events
from .registry import MetricsRegistry
from .report import (
    RunReport,
    format_gravity,
    format_neighbor_cache,
)
from .tracer import NullTracer, SpanTracer, make_tracer

__all__ = [
    "ObservabilityConfig",
    "SpanTracer",
    "NullTracer",
    "make_tracer",
    "MetricsRegistry",
    "RunReport",
    "RunLedger",
    "RunRecord",
    "host_fingerprint",
    "fingerprint_id",
    "code_version",
    "record_from_simulation",
    "format_gravity",
    "format_neighbor_cache",
    "pop_from_events",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
