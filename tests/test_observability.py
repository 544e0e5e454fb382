"""The unified observability subsystem + consolidated Simulation API.

Covers the span tracer (nesting, row-slice span merging), the exporters (Chrome trace_event, JSONL), POP
metrics from measured spans, and the RunConfig / report() driver
surface.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import (
    NullTracer,
    ObservabilityConfig,
    State,
    TraceEvent,
    Tracer,
    make_tracer,
    pop_from_events,
    self_times,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
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
# Tracer / NullTracer
# ======================================================================
def test_span_tracer_nesting_depth_and_step_attribution():
    t = Tracer()
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
    t = Tracer()
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
        Tracer().record_span("A", State.USEFUL, 0.0, -1.0)


def test_span_tracer_caps_events():
    t = Tracer(max_events=2)
    for _ in range(4):
        with t.phase("A"):
            pass
    assert len(t.events) == 2
    assert t.dropped == 2
    # Modeled intervals are never dropped: a modeled trace stays complete.
    t.record(0, "J", State.MPI, 1.0)
    assert len(t.events) == 3 and t.dropped == 2


def test_span_tracer_keeps_base_queries():
    t = Tracer()
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
    on = make_tracer(None)
    assert type(on) is Tracer and on.max_events == 1_000_000
    assert type(make_tracer(ObservabilityConfig())) is Tracer
    off = make_tracer(ObservabilityConfig(enabled=False))
    assert isinstance(off, NullTracer)


def test_observability_config_validation():
    from dataclasses import fields

    assert [f.name for f in fields(ObservabilityConfig)] == [
        "enabled", "chrome_trace_path", "jsonl_path", "ledger_path",
    ]
    cfg = ObservabilityConfig().with_(enabled=False)
    assert not cfg.enabled


# ======================================================================
# Exporters
# ======================================================================
def _sample_tracer():
    t = Tracer()
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


def test_pop_counts_nested_useful_spans_once():
    """A USEFUL span inside a USEFUL span adds its parent's interval only."""
    events = [
        TraceEvent(0, 0, "step-0", State.STEP, 0.0, 12.0),
        TraceEvent(0, 0, "C", State.USEFUL, 1.0, 10.0, depth=1),
        TraceEvent(0, 0, "B", State.USEFUL, 2.0, 3.0, depth=2),
        TraceEvent(0, 0, "B", State.USEFUL, 6.0, 1.0, depth=2),
        TraceEvent(0, 0, "E", State.USEFUL, 11.0, 0.5, depth=1),
        # Another row's span at depth 2 is nobody's child here.
        TraceEvent(0, 1, "B", State.USEFUL, 2.0, 4.0, depth=2),
    ]
    assert self_times(events) == [1.5, 6.0, 3.0, 1.0, 0.5, 4.0]
    m = pop_from_events(events)
    assert m.total_useful == pytest.approx(10.0 + 0.5 + 4.0)
    assert m.n_ranks == 2


def test_pop_from_events_agrees_with_cluster_metrics():
    """On the simulated cluster's rank-level traces, the one POP function
    is the paper's per-rank definition."""
    from repro.core.presets import CHANGA, SPHFLOW, SPHYNX
    from repro.runtime.calibration import PAPER_ANCHORS_12CORES
    from repro.runtime.cluster import ClusterModel
    from repro.runtime.machine import MARENOSTRUM4, PIZ_DAINT
    from repro.runtime.scaling import PAPER_CORE_COUNTS
    from repro.runtime.workloads import build_workload

    cases = 0
    for preset in (SPHYNX, CHANGA, SPHFLOW):
        for test in ("square", "evrard"):
            if (preset.label, test) not in PAPER_ANCHORS_12CORES:
                continue
            workload = build_workload(test, 20_000)
            for spec, cores in itertools.product(
                (PIZ_DAINT, MARENOSTRUM4), PAPER_CORE_COUNTS
            ):
                tracer = Tracer()
                model = ClusterModel(
                    workload, preset, spec, cores, kappa=1e-7, tracer=tracer
                )
                model.simulate_step()
                useful = np.array([
                    sum(e.duration for e in tracer.events
                        if e.rank == r and e.state is State.USEFUL)
                    for r in range(model.n_ranks)
                ])
                runtime = max(e.end for e in tracer.events)
                m = pop_from_events(tracer, reference_useful_total=1.0)
                assert m.n_ranks == model.n_ranks
                expect = {
                    "runtime": runtime,
                    "total_useful": useful.sum(),
                    "load_balance": useful.mean() / useful.max(),
                    "communication_efficiency": useful.max() / runtime,
                    "computation_scalability": 1.0 / useful.sum(),
                }
                for attr, value in expect.items():
                    assert getattr(m, attr) == pytest.approx(value, rel=1e-12), (
                        preset.label, test, spec.name, cores, attr
                    )
                cases += 1
    assert cases == 5 * 2 * len(PAPER_CORE_COUNTS)


def test_search_span_carries_the_tree_walk(monkeypatch):
    """Phase B times the neighbour walk and nests in C; C's self time
    excludes it (every evaluation builds its list: no cache hits)."""
    import time

    from repro.tree.neighborlist import VerletNeighborCache
    from repro.tree.octree import Octree

    walk = Octree.walk_neighbors
    inside = []

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return walk(self, *args, **kwargs)
        finally:
            inside.append(time.perf_counter() - t0)

    monkeypatch.setattr(Octree, "walk_neighbors", timed)
    monkeypatch.setattr(VerletNeighborCache, "lookup", lambda *a: None)
    particles, box, eos, config = _case()
    sim = Simulation(particles, box, eos, config=config)
    sim.run(n_steps=2)
    events = sim.tracer.events
    own = self_times(events)
    b = [e for e in events if e.phase == "B"]
    c = [(e, t) for e, t in zip(events, own) if e.phase == "C"]
    assert len(b) == len(inside) >= 2
    assert all(e.depth == 2 for e in b) and all(e.depth == 1 for e, _ in c)
    b_total = sum(e.duration for e in b)
    assert b_total >= sum(inside)
    c_total = sum(e.duration for e, _ in c)
    c_self = sum(t for _, t in c)
    assert c_self == pytest.approx(c_total - b_total, rel=1e-9, abs=1e-12)
    assert c_self <= c_total - sum(inside)


# ======================================================================
# Simulation config API: RunConfig, wired once at construction
# ======================================================================
def test_default_simulation_traces_spans():
    particles, box, eos, config = _case()
    sim = Simulation(particles, box, eos, config=config)
    assert type(sim.tracer) is Tracer
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


def test_run_config_wires_threads_and_tracing():
    particles, box, eos, config = _case()
    run = RunConfig().with_(exec=ExecConfig(workers=2))
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=run.with_(observability=ObservabilityConfig(enabled=False)),
    )
    assert sim.run_config.exec.workers == 2
    assert sim._phases.workers == 2
    assert isinstance(sim.tracer, NullTracer)
    with sim:
        sim.run(n_steps=1)
    # ``with_`` replaces one section and keeps the others.
    assert run.observability == RunConfig().observability
    assert run.resilience is None and run.guard is None


# ======================================================================
# Simulation.report()
# ======================================================================
def test_report_sections_and_counters(tmp_path):
    from repro.resilience.checkpoint import ResilienceConfig

    particles, box, eos, config = _case()
    sim = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), checkpoint_every=1
            ),
        ),
    )
    sim.run(n_steps=2)
    rep = sim.report()
    assert rep.steps == 2
    assert rep.n_particles == sim.particles.n
    assert rep.neighbor_cache["builds"] >= 1
    assert rep.checkpoint is not None and rep.checkpoint["writes"] == 2
    assert rep.pop is not None and rep.pop.valid
    assert rep.h_iteration["adaptations"] >= 1
    # Each counter lives in its section, and only there.
    assert set(rep.as_dict()) == {
        "steps", "time", "n_particles", "neighbor_cache", "h_iteration",
        "gravity", "checkpoint", "guard", "pop", "backend",
    }
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
