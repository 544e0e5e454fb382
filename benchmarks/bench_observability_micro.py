"""Micro-benchmark of span-tracing overhead on the serial driver.

The observability subsystem is on by default, so its cost budget is part
of the API contract: tracing enabled may add at most 2% to the step time
(plus a small absolute slack for timer noise on tiny workloads), and the
:class:`~repro.observability.tracer.NullTracer` path must be free of
per-span allocations entirely.

Times full steps of the square patch with the default
:class:`~repro.observability.tracer.Tracer` against the tracing-off
:class:`~repro.observability.tracer.NullTracer` configuration on
bit-identical trajectories, min-of-N per config, and records the ratio
into ``benchmarks/results/observability_micro.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _scaling_common import host_stamp
from repro.core.config import RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import NullTracer, ObservabilityConfig, Tracer
from repro.timestepping.steppers import TimestepParams

#: patch side AND layer count; 18^3 = 5832 particles by default.
SIDE = int(os.environ.get("REPRO_BENCH_OBS_SIDE", "18"))
WARMUP_STEPS = 2
TIMED_STEPS = 5
#: contract: <= 2% relative overhead, plus absolute slack for timer noise.
MAX_OVERHEAD = 0.02
ABS_SLACK_SECONDS = 0.005


def _make_sim(enabled: bool) -> Simulation:
    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=SIDE, layers=SIDE)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    return Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(
            observability=ObservabilityConfig(enabled=enabled)
        ),
    )


def _best_step_time(sim: Simulation) -> float:
    for _ in range(WARMUP_STEPS):
        sim.step()
    best = np.inf
    for _ in range(TIMED_STEPS):
        t0 = time.perf_counter()
        sim.step()
        best = min(best, time.perf_counter() - t0)
    return best


def test_tracing_overhead_within_budget(report, results_dir):
    on = _make_sim(enabled=True)
    assert type(on.tracer) is Tracer and on.tracer.enabled
    t_on = _best_step_time(on)
    spans = len(on.tracer.events)
    n = on.particles.n

    off = _make_sim(enabled=False)
    assert isinstance(off.tracer, NullTracer)
    t_off = _best_step_time(off)
    assert off.tracer.events == []

    # Bit-identical trajectories: instrumentation must not touch physics.
    for f in ("x", "u"):
        assert np.array_equal(
            getattr(on.particles, f), getattr(off.particles, f)
        ), f

    overhead = t_on / t_off - 1.0
    payload = {
        "n_particles": n,
        "step_seconds_tracing_on": t_on,
        "step_seconds_tracing_off": t_off,
        "relative_overhead": overhead,
        "spans_per_run": spans,
        "budget": MAX_OVERHEAD,
        **host_stamp(),
    }
    (results_dir / "observability_micro.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    report(
        "observability_micro",
        "Span-tracing overhead (square patch, serial, "
        f"N={n}, best of {TIMED_STEPS})\n"
        f"  tracing on  : {t_on * 1e3:8.2f} ms/step ({spans} spans)\n"
        f"  tracing off : {t_off * 1e3:8.2f} ms/step\n"
        f"  overhead    : {overhead * 100:+.2f}%  (budget "
        f"{MAX_OVERHEAD * 100:.0f}% + {ABS_SLACK_SECONDS * 1e3:.0f} ms slack)",
    )
    assert t_on <= t_off * (1.0 + MAX_OVERHEAD) + ABS_SLACK_SECONDS, (
        f"tracing overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% budget "
        f"(on={t_on * 1e3:.2f} ms, off={t_off * 1e3:.2f} ms)"
    )


def test_null_tracer_dispatch_is_constant_time():
    """The tracing-off hot path: one dict-free, allocation-free call."""
    t = NullTracer()
    ctx = t.phase("E")
    rounds = 50_000
    t0 = time.perf_counter()
    for _ in range(rounds):
        with t.phase("E"):
            pass
    per_call = (time.perf_counter() - t0) / rounds
    assert t.phase("G") is ctx  # shared context object, no per-call state
    assert t.events == []
    assert per_call < 5e-6  # ~µs scale even on slow CI hosts
