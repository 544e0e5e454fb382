"""The unified observability subsystem + consolidated Simulation API.

Covers the span tracer (nesting, row-slice span merging), the exporters (Chrome trace_event, JSONL), POP
metrics from measured spans, the metrics registry, and the RunConfig /
configure() / report() driver surface.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import (
    MetricsRegistry,
    NullTracer,
    ObservabilityConfig,
    SpanTracer,
    make_tracer,
    pop_from_events,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.profiling.metrics import compute_pop_metrics
from repro.profiling.trace import State, TraceEvent, Tracer
from repro.timestepping.steppers import TimestepParams

TS = TimestepParams(use_energy_criterion=False)
FIELDS = ("x", "v", "rho", "u", "p", "a", "du")


def _case(side=8, layers=3):
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=side, layers=layers)
    )
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    return particles, box, eos, config


def _state(sim):
    return {f: getattr(sim.particles, f).copy() for f in FIELDS}


# ======================================================================
# SpanTracer / NullTracer
# ======================================================================
def test_span_tracer_nesting_depth_and_step_attribution():
    t = SpanTracer()
    with t.step_span(7):
        with t.phase("A"):
            with t.phase("A.inner", State.SYNC):
                pass
        with t.phase("B", State.FORK_JOIN):
            pass
    by_phase = {e.phase: e for e in t.events}
    assert by_phase["step-7"].depth == 0
    assert by_phase["step-7"].state is State.STEP
    assert by_phase["A"].depth == 1
    assert by_phase["A.inner"].depth == 2
    assert by_phase["B"].depth == 1
    assert all(e.step == 7 for e in t.events)
    # Containment: children lie inside their parents.
    assert by_phase["A.inner"].start >= by_phase["A"].start
    assert by_phase["A.inner"].end <= by_phase["A"].end + 1e-9
    assert by_phase["step-7"].end >= by_phase["B"].end - 1e-9


def test_span_tracer_origin_is_lazy_and_shared():
    t = SpanTracer()
    with t.phase("A"):
        pass
    first = t.events[0]
    assert first.start == pytest.approx(0.0, abs=1e-4)
    # A raw perf_counter timestamp recorded later lands after the origin.
    import time

    t0 = time.perf_counter()
    t.record_span("D", State.USEFUL, t0, 0.25, rank=0, thread=2, label="d[0:4)")
    merged = t.events[-1]
    assert merged.thread == 2
    assert merged.start > 0.0
    assert merged.duration == pytest.approx(0.25)
    assert merged.label == "d[0:4)"


def test_span_tracer_rejects_negative_duration():
    with pytest.raises(ValueError, match="duration"):
        SpanTracer().record_span("A", State.USEFUL, 0.0, -1.0)


def test_span_tracer_caps_events():
    t = SpanTracer(max_events=2)
    for _ in range(4):
        with t.phase("A"):
            pass
    assert len(t.events) == 2
    assert t.dropped == 2


def test_span_tracer_keeps_base_queries():
    t = SpanTracer()
    with t.phase("E"):
        pass
    assert t.ranks == [0]
    assert t.time_in_phase("E") >= 0.0
    assert t.runtime() >= t.events[0].end - 1e-12


def test_null_tracer_is_inert():
    t = NullTracer()
    assert not t.enabled
    ctx1 = t.phase("A", State.USEFUL, 0)
    ctx2 = t.step_span(3)
    assert ctx1 is ctx2  # one shared no-op context, no per-call allocation
    with ctx1:
        pass
    t.record_span("A", State.USEFUL, 0.0, 1.0)
    t.set_step(5)
    assert t.events == []


def test_make_tracer_dispatch():
    assert isinstance(make_tracer(None), SpanTracer)
    assert make_tracer(ObservabilityConfig(max_events=10)).max_events == 10
    off = make_tracer(ObservabilityConfig(enabled=False))
    assert isinstance(off, NullTracer)


def test_observability_config_validation():
    with pytest.raises(ValueError):
        ObservabilityConfig(max_events=0)
    cfg = ObservabilityConfig().with_(enabled=False)
    assert not cfg.enabled


# ======================================================================
# MetricsRegistry
# ======================================================================
def test_registry_add_set_get():
    reg = MetricsRegistry()
    reg.add("a.hits")
    reg.add("a.hits", 4)
    reg.set("a.rate", 0.5)
    assert reg.get("a.hits") == 5
    assert reg.get("a.rate") == 0.5
    assert reg.get("missing", -1) == -1
    assert "a.hits" in reg and len(reg) == 2


def test_registry_absorb_mapping_object_and_none():
    class Stats:
        def as_dict(self):
            return {"n": 3, "flag": True, "junk": "text"}

    reg = MetricsRegistry()
    reg.absorb("m", {"x": 1, "y": 2.5})
    reg.absorb("o", Stats())
    reg.absorb("none", None)  # silently skipped
    assert reg.as_dict() == {"m.x": 1, "m.y": 2.5, "o.n": 3, "o.flag": 1}
    assert reg.subset("m") == {"x": 1, "y": 2.5}
    with pytest.raises(TypeError):
        reg.absorb("bad", object())


# ======================================================================
# Exporters
# ======================================================================
def _sample_tracer():
    t = SpanTracer()
    with t.step_span(0):
        with t.phase("E"):
            pass
    import time

    t.record_span(
        "E", State.USEFUL, time.perf_counter(), 0.001,
        thread=1, step=0, label="density[0:8)",
    )
    return t


def test_chrome_trace_schema():
    t = _sample_tracer()
    doc = to_chrome_trace(t)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    ms = [e for e in events if e["ph"] == "M"]
    assert len(xs) == len(t.events)
    for e in xs:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
        assert e["dur"] >= 0.0
    # Metadata names every row; the driver row also names the process.
    names = {(m["pid"], m["tid"]) for m in ms if m["name"] == "thread_name"}
    assert names == {(0, 0), (0, 1)}
    labels = {m["args"]["name"] for m in ms if m["name"] == "thread_name"}
    assert labels == {"driver", "worker 0"}
    # ts/dur are microseconds.
    span = next(e for e in xs if e["name"] == "density[0:8)")
    assert span["dur"] == pytest.approx(1000.0)
    json.dumps(doc)  # serializable


def test_jsonl_round_trip():
    t = _sample_tracer()
    lines = list(to_jsonl(t))
    assert len(lines) == len(t.events)
    rows = [json.loads(line) for line in lines]
    assert {r["phase"] for r in rows} == {"E", "step-0"}
    merged = next(r for r in rows if r["label"])
    assert merged["thread"] == 1 and merged["step"] == 0


def test_exporters_write_files(tmp_path):
    t = _sample_tracer()
    cpath = write_chrome_trace(tmp_path / "sub" / "trace.json", t)
    jpath = write_jsonl(tmp_path / "trace.jsonl", t)
    doc = json.loads(cpath.read_text())
    assert doc["traceEvents"]
    assert len(jpath.read_text().splitlines()) == len(t.events)


# ======================================================================
# POP from measured spans
# ======================================================================
def test_pop_from_events_matches_formula():
    events = [
        TraceEvent(0, 0, "E", State.USEFUL, 0.0, 8.0),
        TraceEvent(0, 0, "J", State.IDLE, 8.0, 2.0),
        TraceEvent(0, 1, "E", State.USEFUL, 0.0, 10.0),
    ]
    m = pop_from_events(events)
    assert m.n_ranks == 2  # two (rank, thread) rows did useful work
    assert m.load_balance == pytest.approx(0.9)
    assert m.communication_efficiency == pytest.approx(1.0)
    assert m.parallel_efficiency == pytest.approx(0.9)
    assert m.valid


def test_pop_from_events_step_spans_extend_runtime_only():
    events = [
        TraceEvent(0, 0, "step-0", State.STEP, 0.0, 12.0),
        TraceEvent(0, 0, "E", State.USEFUL, 1.0, 6.0),
    ]
    m = pop_from_events(events)
    assert m.total_useful == pytest.approx(6.0)
    assert m.runtime == pytest.approx(12.0)


def test_pop_from_events_empty_is_nan_safe():
    m = pop_from_events([])
    assert not m.valid
    assert math.isnan(m.load_balance)


def test_pop_from_events_agrees_with_cluster_metrics():
    """Measured-span POP == modeled POP on the simulated-cluster path."""
    from repro.core.presets import SPHFLOW
    from repro.runtime.cluster import ClusterModel
    from repro.runtime.machine import PIZ_DAINT
    from repro.runtime.workloads import build_workload

    tracer = Tracer()
    model = ClusterModel(
        build_workload("square", 20_000), SPHFLOW, PIZ_DAINT, 24,
        kappa=1e-7, tracer=tracer,
    )
    model.simulate_step()
    modeled = compute_pop_metrics(tracer)
    measured = pop_from_events(tracer)
    assert measured.n_ranks == modeled.n_ranks
    assert measured.total_useful == pytest.approx(modeled.total_useful, rel=1e-9)
    for attr in (
        "load_balance",
        "communication_efficiency",
        "parallel_efficiency",
        "global_efficiency",
    ):
        assert getattr(measured, attr) == pytest.approx(
            getattr(modeled, attr), rel=0.05
        )


# ======================================================================
# Simulation config API: RunConfig / configure() / deprecated kwargs
# ======================================================================
def test_default_simulation_traces_spans():
    particles, box, eos, config = _case()
    sim = Simulation(particles, box, eos, config=config)
    assert isinstance(sim.tracer, SpanTracer)
    assert sim.tracer.enabled
    sim.run(n_steps=1)
    states = {e.state for e in sim.tracer.events}
    assert State.STEP in states and State.USEFUL in states
    assert {e.step for e in sim.tracer.events} == {0}


def test_run_config_disables_tracing():
    particles, box, eos, config = _case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(observability=ObservabilityConfig(enabled=False)),
    )
    assert isinstance(sim.tracer, NullTracer)
    sim.run(n_steps=1)
    assert sim.tracer.events == []


def test_tracing_on_off_bitwise_parity():
    pa, box_a, eos_a, config = _case()
    pb, box_b, eos_b, _ = _case()
    on = Simulation(pa, box_a, eos_a, config=config)
    off = Simulation(
        pb, box_b, eos_b, config=config,
        run_config=RunConfig(observability=ObservabilityConfig(enabled=False)),
    )
    on.run(n_steps=2)
    off.run(n_steps=2)
    for f in FIELDS:
        assert np.array_equal(_state(on)[f], _state(off)[f]), f
    assert [s.dt for s in on.history] == [s.dt for s in off.history]


def test_configure_chains_and_rewires():
    particles, box, eos, config = _case()
    sim = Simulation(particles, box, eos, config=config).configure(
        exec=ExecConfig(workers=0, neighbor_cache=True),
        observability=ObservabilityConfig(enabled=False),
    )
    assert sim.run_config.exec.neighbor_cache
    assert isinstance(sim.tracer, NullTracer)
    assert sim._ncache is not None
    sim.run(n_steps=1)
    with pytest.raises(RuntimeError, match="configure"):
        sim.configure(exec=ExecConfig(workers=0))


def test_configure_keeps_unspecified_sections():
    particles, box, eos, config = _case()
    sim = Simulation(particles, box, eos, config=config)
    before = sim.run_config.observability
    sim.configure(exec=ExecConfig(workers=0, neighbor_cache=True))
    assert sim.run_config.observability is before


def test_explicit_tracer_is_not_replaced():
    particles, box, eos, config = _case()
    shared = SpanTracer()
    sim = Simulation(particles, box, eos, config=config, tracer=shared)
    sim.configure(exec=ExecConfig(workers=0))
    assert sim.tracer is shared


# ======================================================================
# Simulation.report()
# ======================================================================
def test_report_sections_and_counters(tmp_path):
    from repro.resilience.checkpoint import ResilienceConfig

    particles, box, eos, config = _case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(
            exec=ExecConfig(workers=0, neighbor_cache=True),
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=1,
                autoresume=False,
            ),
        ),
    )
    sim.run(n_steps=2)
    rep = sim.report()
    assert rep.steps == 2
    assert rep.n_particles == sim.particles.n
    assert rep.neighbor_cache is not None and rep.neighbor_cache["builds"] >= 1
    assert rep.checkpoint is not None and rep.checkpoint["writes"] == 2
    assert rep.pop is not None and rep.pop.valid
    assert rep.counters["neighbor_cache.builds"] == rep.neighbor_cache["builds"]
    assert rep.counters["checkpoint.writes"] == 2
    assert rep.counters["tracer.events"] == len(sim.tracer.events)
    # Dict conversion is JSON-clean; summary mentions each section.
    json.dumps(rep.as_dict())
    text = rep.summary()
    assert "neighbor-cache" in text
    assert "checkpoint" in text and "LB=" in text


def test_report_with_tracing_off_has_no_pop():
    particles, box, eos, config = _case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(observability=ObservabilityConfig(enabled=False)),
    )
    sim.run(n_steps=1)
    rep = sim.report()
    assert rep.pop is None
    assert "tracer.events" not in rep.counters
    json.dumps(rep.as_dict())


def test_close_exports_configured_paths(tmp_path):
    particles, box, eos, config = _case()
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    with Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(
            observability=ObservabilityConfig(
                chrome_trace_path=str(chrome), jsonl_path=str(jsonl)
            )
        ),
    ) as sim:
        sim.run(n_steps=1)
    doc = json.loads(chrome.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    assert jsonl.read_text().count("\n") == len(sim.tracer.events)


# ======================================================================
# Threaded runs: merged row-slice spans, POP
# ======================================================================
def _assert_rows_non_overlapping(events, tol=1e-6):
    """Spans on one (rank, thread) row at equal depth must not overlap."""
    rows = {}
    for e in events:
        if e.state is State.STEP:
            continue
        rows.setdefault((e.rank, e.thread, e.depth), []).append(e)
    for row_events in rows.values():
        row_events.sort(key=lambda e: e.start)
        for a, b in zip(row_events, row_events[1:]):
            assert b.start >= a.end - tol, (a, b)


def _assert_no_stale_chunk_spans(events):
    """Coherence invariant for merged row-slice spans.

    A step may evaluate rates more than once (leapfrog bootstrap), so a
    chunk label can legitimately recur — but within one (step, phase,
    kind) every chunk must be recorded the same number of times.
    """
    counts: dict = {}
    for e in events:
        if e.thread == 0 or not e.label:
            continue
        kind = e.label.split("[")[0]
        group = counts.setdefault((e.step, e.phase, kind), {})
        group[e.label] = group.get(e.label, 0) + 1
    for key, group in counts.items():
        assert len(set(group.values())) == 1, (
            f"uneven chunk application in {key}: {group}"
        )


def test_pool_run_merges_worker_spans_and_yields_valid_pop():
    particles, box, eos, config = _case(side=10, layers=4)
    with Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(exec=ExecConfig(workers=2)),
    ) as sim:
        sim.run(n_steps=2)
        events = sim.tracer.events
        threads = {e.thread for e in events}
        assert threads == {0, 1, 2}
        worker = [e for e in events if e.thread > 0]
        assert worker and all(e.state is State.USEFUL for e in worker)
        assert all(e.label for e in worker)
        assert {e.step for e in worker} <= {0, 1}
        assert {e.phase for e in worker} <= {"D", "E", "G", "I"}
        _assert_rows_non_overlapping(events)
        _assert_no_stale_chunk_spans(events)
        m = pop_from_events(sim.tracer)
        assert m.valid
        assert m.n_ranks == 3  # driver + 2 thread lanes
        assert 0.0 < m.load_balance <= 1.0 + 1e-9
        assert 0.0 < m.communication_efficiency <= 1.0 + 1e-9
        # Export of a real merged timeline is schema-clean.
        json.dumps(to_chrome_trace(sim.tracer))


def test_worker_spans_can_be_disabled():
    particles, box, eos, config = _case(side=10, layers=4)
    with Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(
            exec=ExecConfig(workers=2),
            observability=ObservabilityConfig(worker_spans=False),
        ),
    ) as sim:
        sim.run(n_steps=1)
        assert {e.thread for e in sim.tracer.events} == {0}
