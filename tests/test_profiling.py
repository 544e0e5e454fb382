"""Tracer, POP metrics, timeline rendering on hand-built modeled traces."""

import math

import pytest

from repro.observability import (
    STATE_CHARS,
    State,
    TraceEvent,
    Tracer,
    pop_from_events,
    render_timeline,
)


def _two_rank_trace():
    """Rank 0: 8s useful + 2s idle; rank 1: 10s useful. Runtime 10s."""
    t = Tracer()
    t.record(0, "E", State.USEFUL, 8.0)
    t.record(0, "J", State.IDLE, 2.0)
    t.record(1, "E", State.USEFUL, 10.0)
    return t


def test_tracer_clocks_advance():
    t = Tracer()
    t.record(0, "A", State.USEFUL, 1.5)
    e = t.record(0, "B", State.MPI, 0.5)
    assert e.start == pytest.approx(1.5)
    assert t.clock(0) == pytest.approx(2.0)
    t.advance_to(0, 5.0)
    assert t.clock(0) == 5.0
    t.advance_to(0, 1.0)  # never goes backwards
    assert t.clock(0) == 5.0


def test_tracer_rejects_negative_duration():
    with pytest.raises(ValueError, match="duration"):
        Tracer().record(0, "A", State.USEFUL, -1.0)


def test_tracer_queries():
    t = _two_rank_trace()
    assert t.ranks == [0, 1]
    assert t.runtime() == pytest.approx(10.0)
    assert t.time_in_state(0, State.USEFUL) == pytest.approx(8.0)
    assert t.time_in_state(0, State.IDLE) == pytest.approx(2.0)
    assert t.time_in_phase("E") == pytest.approx(18.0)
    assert t.time_in_phase("E", rank=0) == pytest.approx(8.0)
    assert t.phase_letters() == ["E", "J"]


def test_wallclock_phase_context():
    t = Tracer()
    with t.phase("A"):
        sum(range(1000))
    assert len(t.events) == 1
    assert t.events[0].duration >= 0.0
    assert t.events[0].phase == "A"


def test_pop_metrics_formulas():
    t = _two_rank_trace()
    m = pop_from_events(t)
    # LB = mean(8,10)/max(8,10) = 0.9
    assert m.load_balance == pytest.approx(0.9)
    # CommEff = max useful / runtime = 10/10 = 1
    assert m.communication_efficiency == pytest.approx(1.0)
    assert m.parallel_efficiency == pytest.approx(0.9)
    assert m.computation_scalability == 1.0
    assert m.global_efficiency == pytest.approx(0.9)
    assert m.total_useful == pytest.approx(18.0)
    assert "LB=0.900" in m.row()


def test_pop_metrics_with_reference():
    t = _two_rank_trace()
    m = pop_from_events(t, reference_useful_total=9.0)
    assert m.computation_scalability == pytest.approx(0.5)
    assert m.global_efficiency == pytest.approx(0.45)


def test_pop_metrics_empty_trace_is_nan_safe():
    m = pop_from_events(Tracer())
    assert not m.valid
    assert m.n_ranks == 0
    assert m.runtime == 0.0
    assert m.total_useful == 0.0
    assert math.isnan(m.load_balance)
    assert math.isnan(m.communication_efficiency)
    assert math.isnan(m.global_efficiency)


def test_pop_metrics_zero_duration_trace_is_nan_safe():
    t = Tracer()
    t.record(0, "A", State.USEFUL, 0.0)
    t.record(1, "A", State.IDLE, 0.0)
    m = pop_from_events(t)
    assert not m.valid
    assert m.n_ranks == 1  # the one row with a useful span
    assert math.isnan(m.load_balance)  # max useful is 0
    assert math.isnan(m.communication_efficiency)  # runtime is 0


def test_pop_metrics_zero_useful_reference_is_nan():
    t = Tracer()
    t.record(0, "A", State.IDLE, 1.0)
    m = pop_from_events(t, reference_useful_total=5.0)
    assert math.isnan(m.computation_scalability)
    assert not m.valid


def test_pop_metrics_valid_flag_on_healthy_trace():
    assert pop_from_events(_two_rank_trace()).valid


def test_timeline_render_shows_states_and_phases():
    t = Tracer()
    t.record(0, "A", State.USEFUL, 5.0)
    t.record(0, "B", State.MPI, 3.0)
    t.record(0, "C", State.IDLE, 2.0)
    t.record(1, "A", State.USEFUL, 10.0)
    out = render_timeline(t, width=40)
    assert "r0t0" in out and "r1t0" in out
    assert STATE_CHARS[State.USEFUL] in out
    assert STATE_CHARS[State.MPI] in out
    assert "legend" in out
    # Phase header letters present.
    header = out.splitlines()[0]
    assert "A" in header and "B" in header


def test_timeline_caps_rows():
    t = Tracer()
    for r in range(100):
        t.record(r, "A", State.USEFUL, 1.0)
    out = render_timeline(t, width=30, max_rows=10)
    body_rows = [l for l in out.splitlines() if l.startswith("r")]
    assert len(body_rows) <= 10
    assert "r0t0" in out and "r99t0" in out  # both ends visible


def test_timeline_empty():
    assert "empty" in render_timeline(Tracer())


def test_event_end_property():
    e = TraceEvent(0, 0, "A", State.USEFUL, 1.0, 2.5)
    assert e.end == pytest.approx(3.5)
