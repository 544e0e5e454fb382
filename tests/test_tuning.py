"""The tuning layer: Amdahl cost model + online autotuner.

Pins the contracts ISSUE 9 promises: the Amdahl fit recovers known
coefficients, predictions carry honest uncertainty bands, the
exploration order is a pure function of the seed, a tuned run converges
and explains itself (decision trail + ``tuning`` spans), autotuning off
is bitwise-invisible, and a warm-started tuner actually reads the
ledger.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import ObservabilityConfig
from repro.tuning import (
    AmdahlCostModel,
    Autotuner,
    CostModel,
    TuningConfig,
)
from repro.tuning.autotuner import SUPPORTED_KNOBS, knobs_of


def _small_sim(run_config=None) -> Simulation:
    particles, box, eos = make_square_patch(SquarePatchConfig(side=6, layers=3))
    return Simulation(
        particles, box, eos, run_config=run_config, scenario="square-patch"
    )


#: A tiny, fully deterministic knob space for driver-loop tests: numpy
#: is always available, and two cache knobs keep exploration short.
_FAST_TUNING = dict(
    steps_per_candidate=1,
    max_exploration_steps=16,
    knobs=("neighbor_cache", "cache_skin"),
    backend_options=("numpy",),
)


# --- Amdahl model -------------------------------------------------------


def test_amdahl_fit_recovers_known_coefficients():
    model = AmdahlCostModel(n0=1000)
    serial, parallel = 2.0, 8.0
    # Two sizes separate the serial term from the constant overhead
    # (at fixed N they are collinear by construction).
    for n in (1000, 2000):
        for w in (1, 2, 4, 8):
            model.observe(n, w, (serial + parallel / w) * (n / 1000))
    model.fit()
    assert model.serial_s == pytest.approx(serial, rel=1e-6)
    assert model.parallel_s == pytest.approx(parallel, rel=1e-6)
    assert model.constant_s == pytest.approx(0.0, abs=1e-9)
    assert model.serial_fraction(1000) == pytest.approx(0.2, rel=1e-6)
    # Perfect data -> exact prediction at an unseen (N, w) corner.
    pred = model.predict(4000, workers=16)
    assert pred.t_seconds == pytest.approx(
        (serial + parallel / 16) * 4.0, rel=1e-6
    )
    assert pred.source == "amdahl"


def test_amdahl_fit_scales_with_n():
    model = AmdahlCostModel(n0=100)
    for n in (100, 200, 400):
        for w in (1, 2):
            model.observe(n, w, (1.0 + 4.0 / w) * (n / 100))
    model.fit()
    pred = model.predict(800, workers=4)
    assert pred.t_seconds == pytest.approx((1.0 + 4.0 / 4) * 8.0, rel=1e-5)


def test_nonnegativity_by_column_dropping():
    """Anti-Amdahl data (slower with more workers) must not fit a
    negative parallel coefficient."""
    model = AmdahlCostModel(n0=100)
    for w, t in ((1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0)):
        model.observe(100, w, t)
    model.fit()
    assert model.serial_s >= 0.0
    assert model.parallel_s >= 0.0
    assert model.constant_s >= 0.0


def test_prediction_interval_brackets_noise():
    rng = np.random.default_rng(0)
    model = AmdahlCostModel(n0=1000)
    times = 5.0 + rng.normal(0.0, 0.25, size=40)
    for t in times:
        model.observe(1000, 1, max(0.0, float(t)))
    pred = model.predict(1000, workers=1)
    assert pred.sigma_seconds > 0.0 and math.isfinite(pred.sigma_seconds)
    assert pred.lo_seconds < pred.t_seconds < pred.hi_seconds
    assert pred.t_seconds == pytest.approx(5.0, abs=0.2)
    assert 5.0 in pred  # the truth sits inside the ~95% band


def test_cold_model_returns_prior():
    pred = AmdahlCostModel().predict(100, prior_s=1.25)
    assert pred.source == "prior"
    assert pred.t_seconds == 1.25
    assert pred.lo_seconds == -math.inf and pred.hi_seconds == math.inf
    assert pred.n_observations == 0


def test_bad_observation_rejected():
    model = AmdahlCostModel()
    with pytest.raises(ValueError):
        model.observe(100, 1, float("nan"))
    with pytest.raises(ValueError):
        model.observe(100, 1, -1.0)


def test_signature_offsets_separate_knob_sets():
    model = AmdahlCostModel(n0=100)
    slow, fast = (("backend", "numpy"),), (("backend", "cffi"),)
    for _ in range(4):
        model.observe(100, 1, 2.0, slow)
        model.observe(100, 1, 1.0, fast)
    model.fit()
    p_slow = model.predict(100, 1, slow)
    p_fast = model.predict(100, 1, fast)
    assert p_slow.source == "signature" and p_fast.source == "signature"
    assert p_slow.t_seconds == pytest.approx(2.0, abs=1e-9)
    assert p_fast.t_seconds == pytest.approx(1.0, abs=1e-9)


def test_cost_model_facade_and_ledger_rows(tmp_path):
    from repro.observability.ledger import RunRecord

    cm = CostModel(n0=100)
    rows = [
        RunRecord(
            run_id=f"sod-{i:08d}", created_s=float(i), scenario="sod",
            n_particles=100, n_steps=4, host_id="h", backend="numpy",
            code_version="v",
            knobs={"workers": 0, "backend": "numpy"},
            phases={"C": {"total_s": 2.0, "count": 4}},
            step_times={"count": 4, "p50_s": 1.0},
        )
        for i in range(3)
    ]
    assert cm.absorb_ledger_rows(rows) == 3
    # A row without step percentiles is skipped, not fatal.
    assert cm.absorb_ledger_rows(
        [RunRecord(run_id="x", created_s=0.0, scenario="sod",
                   n_particles=100, n_steps=1, host_id="h",
                   backend="numpy", code_version="v")]
    ) == 0
    pred = cm.predict({"workers": 0, "backend": "numpy"})
    assert pred.t_seconds == pytest.approx(1.0, abs=1e-6)
    breakdown = cm.phase_breakdown(100)
    assert "C" in breakdown
    assert cm.as_dict()["step"]["n_observations"] == 3


# --- TuningConfig validation --------------------------------------------


def test_tuning_config_rejects_unknown_knob():
    with pytest.raises(ValueError, match="knob"):
        TuningConfig(knobs=("warp_drive",))


def test_tuning_config_rejects_bad_budget():
    with pytest.raises(ValueError):
        TuningConfig(max_exploration_steps=0)
    with pytest.raises(ValueError):
        TuningConfig(steps_per_candidate=0)


def test_supported_knobs_match_exec_config():
    ex = ExecConfig()
    knobs = knobs_of(ex)
    for name in SUPPORTED_KNOBS:
        assert name in knobs


# --- deterministic exploration ------------------------------------------


def _plan_of(seed: int):
    sim = _small_sim()
    try:
        tuner = Autotuner(sim, TuningConfig(seed=seed, **_FAST_TUNING))
        return list(tuner._plan)
    finally:
        sim.close()


def test_exploration_order_is_seed_deterministic():
    assert _plan_of(7) == _plan_of(7)
    # Different seeds explore the same set, (almost surely) reordered.
    assert sorted(map(repr, _plan_of(7))) == sorted(map(repr, _plan_of(8)))


def test_trial_sequence_reproducible_across_runs():
    def trial_sequence(seed: int):
        sim = _small_sim(RunConfig(tuning=TuningConfig(seed=seed, **_FAST_TUNING)))
        try:
            sim.run(n_steps=8)
            trail = sim.report().tuning["trail"]
            return [
                (e["knob"], e["value"])
                for e in trail
                if e["event"] in ("adopt", "reject")
            ]
        finally:
            sim.close()

    assert trial_sequence(5) == trial_sequence(5)


# --- the tuned driver loop ----------------------------------------------


def test_autotuned_run_converges_and_reports():
    sim = _small_sim(RunConfig(tuning=TuningConfig(seed=1, **_FAST_TUNING)))
    try:
        sim.run(n_steps=10)
        tuning = sim.report().tuning
        assert tuning is not None and tuning["done"]
        assert tuning["converged_step"] is not None
        assert tuning["explored_steps"] <= 16
        assert set(tuning["recommendation"]) == set(tuning["baseline"])
        events = {e["event"] for e in tuning["trail"]}
        assert "baseline" in events and "converged" in events
        assert tuning["best_step_s"] > 0.0
        # The model fit ships with the report.
        assert tuning["model"]["step"]["n_observations"] >= 2
        # Knob switches are traced as 'tuning' spans on the driver row.
        assert any(e.phase == "tuning" for e in sim.tracer.events)
        # The loop keeps stepping fine after convergence.
        assert sim.step_index == 10
    finally:
        sim.close()


def test_budget_exhaustion_finishes_exploration():
    cfg = TuningConfig(
        steps_per_candidate=3, max_exploration_steps=4,
        knobs=("neighbor_cache", "cache_skin"), backend_options=("numpy",),
    )
    sim = _small_sim(RunConfig(tuning=cfg))
    try:
        sim.run(n_steps=8)
        tuning = sim.report().tuning
        assert tuning["done"]
        assert tuning["explored_steps"] <= 4 + cfg.steps_per_candidate
    finally:
        sim.close()


def test_disabled_tuning_is_bitwise_invisible():
    base = _small_sim(RunConfig())
    offed = _small_sim(
        RunConfig(tuning=TuningConfig(enabled=False, **_FAST_TUNING))
    )
    try:
        base.run(n_steps=3)
        offed.run(n_steps=3)
        for name in ("x", "v", "u", "rho", "h"):
            assert np.array_equal(
                getattr(base.particles, name), getattr(offed.particles, name)
            ), name
        assert offed.report().tuning is None
        assert base.time == offed.time
    finally:
        base.close()
        offed.close()


def test_tuned_physics_matches_untuned():
    """Knob switching is numerics-neutral: the tuned trajectory stays
    within the conservation budget of the untuned one."""
    tuned = _small_sim(RunConfig(tuning=TuningConfig(seed=2, **_FAST_TUNING)))
    try:
        tuned.run(n_steps=6)
        drift = tuned.conservation_drift()
        assert drift["mass"] < 1e-12
        assert drift["energy"] < 5e-2
        assert all(np.isfinite(tuned.particles.rho))
    finally:
        tuned.close()


# --- warm start ---------------------------------------------------------


def test_warm_start_reads_ledger(tmp_path):
    path = str(tmp_path / "tuning.db")
    obs = ObservabilityConfig(ledger_path=path)

    first = _small_sim(
        RunConfig(observability=obs,
                  tuning=TuningConfig(seed=0, **_FAST_TUNING))
    )
    try:
        first.run(n_steps=8)
    finally:
        first.close()

    second = _small_sim(
        RunConfig(observability=obs,
                  tuning=TuningConfig(seed=0, **_FAST_TUNING))
    )
    try:
        second.run(n_steps=8)
        tuning = second.report().tuning
        assert tuning["warm_start"]["rows"] >= 1
        assert tuning["warm_start"]["baseline_run_id"] is not None
        # The warm baseline is the previous run's best knob set.
        prev_best = first.report().tuning["recommendation"]
        assert tuning["baseline"]["cache_skin"] == prev_best["cache_skin"]
        assert tuning["baseline"]["neighbor_cache"] == prev_best["neighbor_cache"]
    finally:
        second.close()


def test_pre_removal_ledger_row_still_warm_starts(tmp_path):
    """A row written before ``pair_engine`` and the numba backend were
    removed still opens, still feeds the cost model, and warm-starts the
    tuner onto a config this release can run."""
    from repro.observability.ledger import (
        RunLedger,
        RunRecord,
        fingerprint_id,
        host_fingerprint,
    )

    probe = _small_sim()
    n = probe.particles.n
    probe.close()
    old = RunRecord(
        run_id="square-patch-0000000001", created_s=1.0,
        scenario="square-patch", n_particles=n, n_steps=4,
        host_id=fingerprint_id(), backend="numba", code_version="old",
        host=host_fingerprint(),
        knobs={
            "workers": 0, "chunks_per_worker": 1, "neighbor_cache": True,
            "cache_skin": 0.5, "pair_engine": False, "backend": "numba",
            "checkpoint_every": None,
        },
        step_times={"count": 4, "p50_s": 0.01},
    )
    path = str(tmp_path / "old.db")
    with RunLedger(path) as ledger:
        ledger.append(old)
    with RunLedger(path) as ledger:
        rows = ledger.runs(scenario="square-patch", host_id=fingerprint_id())
    assert [r.knobs for r in rows] == [old.knobs]  # read back verbatim
    assert CostModel(n0=n).absorb_ledger_rows(rows) == 1

    sim = _small_sim(
        RunConfig(tuning=TuningConfig(seed=0, ledger_path=path, **_FAST_TUNING))
    )
    try:
        sim.run(n_steps=6)
        tuning = sim.report().tuning
    finally:
        sim.close()
    assert tuning["warm_start"]["rows"] == 1
    assert tuning["warm_start"]["baseline_run_id"] == old.run_id
    # The knobs that still exist were adopted; the removed ones dropped.
    assert tuning["baseline"]["neighbor_cache"] is True
    assert tuning["baseline"]["cache_skin"] == 0.5
    assert tuning["baseline"]["backend"] == "numpy"
    assert "pair_engine" not in tuning["baseline"]
    assert tuning["done"]


def test_broken_ledger_never_blocks_tuning(tmp_path):
    path = tmp_path / "tuning.db"
    path.write_bytes(b"garbage" * 64)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim = _small_sim(
            RunConfig(tuning=TuningConfig(
                seed=0, ledger_path=str(path), **_FAST_TUNING
            ))
        )
        try:
            sim.run(n_steps=6)
            assert sim.report().tuning["done"]
        finally:
            sim.close()
