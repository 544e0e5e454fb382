"""Fault tolerance: checkpoints, intervals, injection, SDC."""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.presets import SPHFLOW
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.chaos import NumericalFault
from repro.resilience.failures import FailStopInjector, simulate_checkpointing
from repro.resilience.interval import (
    TwoLevelConfig,
    daly_interval,
    expected_waste,
    two_level_intervals,
    young_interval,
)
from repro.resilience.guard import GuardConfig, StepGuard
from repro.resilience.sdc import ChecksumDetector, RangeDetector
from repro.timestepping.criteria import TimestepParams


def _sim(steps=0):
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(
        particles, box, eos,
        config=SPHFLOW.with_(n_neighbors=25,
                             timestep_params=TimestepParams(use_energy_criterion=False)),
    )
    if steps:
        sim.run(n_steps=steps)
    return sim


# ----------------------------------------------------------------------
# Checkpoint/restart
# ----------------------------------------------------------------------
def test_checkpoint_roundtrip(tmp_path):
    sim = _sim(steps=2)
    cp = Checkpoint.of_simulation(sim)
    path = tmp_path / "state.ckpt"
    nbytes = write_checkpoint(path, cp)
    assert nbytes > 0
    back = read_checkpoint(path)
    assert back.time == cp.time
    assert back.step_index == 2
    assert np.array_equal(back.particles.x, sim.particles.x)
    assert np.array_equal(back.particles.extra["p0"], sim.particles.extra["p0"])


def test_restart_resumes_identically(tmp_path):
    """Run 4 steps straight vs 2 + checkpoint/restore + 2: identical."""
    sim_a = _sim(steps=4)
    sim_b = _sim(steps=2)
    cp = Checkpoint.of_simulation(sim_b)
    write_checkpoint(tmp_path / "c", cp)
    restored = read_checkpoint(tmp_path / "c")
    sim_c = _sim(steps=0)
    restored.restore_into(sim_c)
    # Stepper memory (dt growth limiter) is part of a faithful restart:
    # transplant it like a production restart file would.
    sim_c.stepper._dt_prev = sim_b.stepper._dt_prev
    sim_c.run(n_steps=2)
    assert sim_c.step_index == 4
    assert np.allclose(sim_c.particles.x, sim_a.particles.x, atol=1e-14)
    assert np.allclose(sim_c.particles.u, sim_a.particles.u, atol=1e-14)


def test_checkpoint_detects_corruption(tmp_path):
    sim = _sim(steps=1)
    path = tmp_path / "c"
    write_checkpoint(path, Checkpoint.of_simulation(sim))
    raw = bytearray(path.read_bytes())
    raw[-8] ^= 0xFF  # flip payload bits
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        read_checkpoint(path)


def test_checkpoint_missing_and_garbage(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        read_checkpoint(tmp_path / "nope")
    bad = tmp_path / "garbage"
    bad.write_bytes(b"not a checkpoint at all, definitely")
    with pytest.raises(CheckpointError):
        read_checkpoint(bad)


def test_checkpoint_capture_is_isolated():
    sim = _sim(steps=1)
    cp = Checkpoint.of_simulation(sim)
    sim.particles.x += 100.0
    assert not np.allclose(cp.particles.x, sim.particles.x)


# ----------------------------------------------------------------------
# Optimal intervals
# ----------------------------------------------------------------------
def test_young_formula():
    assert young_interval(10.0, 2000.0) == pytest.approx(np.sqrt(2 * 10 * 2000))


def test_daly_close_to_young_for_small_cost():
    c, m = 1.0, 1e6
    assert daly_interval(c, m) == pytest.approx(young_interval(c, m), rel=0.01)


def test_daly_fallback_for_huge_cost():
    assert daly_interval(100.0, 10.0) == pytest.approx(10.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        young_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        daly_interval(1.0, -1.0)


def test_young_minimizes_expected_waste():
    c, m = 5.0, 5000.0
    w_opt = young_interval(c, m)
    waste_opt = expected_waste(w_opt, c, m)
    assert waste_opt < expected_waste(w_opt / 4, c, m)
    assert waste_opt < expected_waste(w_opt * 4, c, m)


def test_young_matches_injection_simulator():
    """The closed form should sit near the empirical optimum."""
    rng = np.random.default_rng(42)
    c, m, work = 5.0, 2000.0, 50_000.0
    def measured(interval, trials=30):
        total = 0.0
        for t in range(trials):
            r = np.random.default_rng(1000 + t)
            total += simulate_checkpointing(work, interval, c, m, rng=r).total_time
        return total / trials
    w_opt = young_interval(c, m)
    t_opt = measured(w_opt)
    assert t_opt < measured(w_opt / 5)
    assert t_opt < measured(w_opt * 5)


def test_two_level_intervals():
    cfg = TwoLevelConfig(cost_fast=1.0, cost_slow=25.0, mtbf=1000.0, fast_coverage=0.8)
    w_fast, w_slow = two_level_intervals(cfg)
    assert w_fast == pytest.approx(young_interval(1.0, 1000.0 / 0.8))
    assert w_slow >= w_fast
    with pytest.raises(ValueError, match="fast_coverage"):
        TwoLevelConfig(cost_fast=1.0, cost_slow=2.0, mtbf=10.0, fast_coverage=1.5)


def test_two_level_degenerate_coverages():
    all_fast = two_level_intervals(
        TwoLevelConfig(cost_fast=1.0, cost_slow=25.0, mtbf=100.0, fast_coverage=1.0)
    )
    assert np.isinf(all_fast[1])
    all_slow = two_level_intervals(
        TwoLevelConfig(cost_fast=1.0, cost_slow=25.0, mtbf=100.0, fast_coverage=0.0)
    )
    assert np.isinf(all_slow[0])


# ----------------------------------------------------------------------
# Failure injection
# ----------------------------------------------------------------------
def test_failstop_mean(rng):
    inj = FailStopInjector(100.0, rng)
    samples = [inj.next_failure() for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(100.0, rel=0.1)
    with pytest.raises(ValueError):
        FailStopInjector(0.0)


def test_simulate_checkpointing_no_failures():
    stats = simulate_checkpointing(
        100.0, 10.0, 1.0, mtbf=1e12, rng=np.random.default_rng(0)
    )
    assert stats.n_failures == 0
    # 100 work in 10-intervals: 9 interior checkpoints.
    assert stats.n_checkpoints == 9
    assert stats.total_time == pytest.approx(100.0 + 9.0)
    assert stats.waste_fraction == pytest.approx(9.0 / 109.0)


def test_simulate_checkpointing_with_failures_completes():
    stats = simulate_checkpointing(
        500.0, 30.0, 2.0, mtbf=200.0, restart_cost=5.0,
        rng=np.random.default_rng(7),
    )
    assert stats.useful_work == 500.0
    assert stats.n_failures > 0
    assert stats.total_time > 500.0


def _bitflip(array, index, bit):
    return NumericalFault(step=0, array=array, kind="bitflip", index=index, bit=bit)


def test_bitflip_changes_exactly_one_value(random_cloud, rng):
    ref = random_cloud.v.copy()
    idx, bit = int(rng.integers(ref.size)), int(rng.integers(64))
    flip = _bitflip("v", idx, bit)
    flip.inject(random_cloud)
    diff = np.nonzero(random_cloud.v.reshape(-1) != ref.reshape(-1))[0]
    assert diff.tolist() == [idx]
    # Flipping the same bit again restores the value.
    flip.inject(random_cloud)
    assert np.array_equal(random_cloud.v, ref)


def test_bitflip_validation():
    with pytest.raises(ValueError, match="target array"):
        NumericalFault(step=0, array="mass", kind="bitflip")
    with pytest.raises(ValueError, match="kind"):
        NumericalFault(step=0, array="m", kind="flip")
    with pytest.raises(ValueError, match="site"):
        NumericalFault(step=0, array="m", kind="bitflip", site="pre")
    with pytest.raises(ValueError, match="fires"):
        NumericalFault(step=0, array="m", kind="bitflip", fires=0)


# ----------------------------------------------------------------------
# SDC detectors
# ----------------------------------------------------------------------
def test_checksum_detector_catches_any_flip(random_cloud, rng):
    det = ChecksumDetector()
    det.snapshot("m", random_cloud.m)
    assert det.verify("m", random_cloud.m) == []
    # A subtle mantissa flip.
    _bitflip("m", int(rng.integers(random_cloud.n)), 3).inject(random_cloud)
    assert det.verify("m", random_cloud.m) != []
    with pytest.raises(KeyError):
        det.verify("unknown", random_cloud.m)


def test_range_detector_catches_exponent_flip(random_cloud):
    det = RangeDetector(v_max=1e3)
    assert det.check(random_cloud) == []
    random_cloud.v[0, 0] = 1e9
    assert any("velocity" in f for f in det.check(random_cloud))
    random_cloud.v[0, 0] = np.nan
    assert any("non-finite" in f for f in det.check(random_cloud))


def test_range_detector_catches_negative_mass(random_cloud):
    det = RangeDetector()
    random_cloud.m[3] = -1.0
    assert any("m" in f for f in det.check(random_cloud))


def test_detectors_on_live_simulation():
    """A mid-run bit flip in mass must be caught within a step by the
    step guard's health check."""
    sim = _sim(steps=1)
    guard = StepGuard()
    assert guard.check_health(sim, sim.history[-1]) == []
    _bitflip("m", 0, 62).inject(sim.particles)  # exponent bit: huge change
    # The poisoned step overflows by design; only it may do so silently.
    with np.errstate(over="ignore", invalid="ignore"):
        stats = sim.step()
        findings = guard.check_health(sim, stats)
    assert findings, "corruption escaped all detectors"


def test_guard_measures_conservation_once_per_step(monkeypatch):
    """The step guard judges the step's own conservation snapshot
    (``history[-1].conservation``): one ``measure_conservation`` per step
    (plus the run's initial one), and the judged state is the one a
    fresh measurement gives."""
    import repro.core.conservation as conservation_mod
    import repro.core.simulation as simulation_mod
    import repro.resilience.guard as guard_mod

    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(
        particles, box, eos,
        config=SPHFLOW.with_(
            n_neighbors=25,
            timestep_params=TimestepParams(use_energy_criterion=False),
        ),
        run_config=RunConfig(guard=GuardConfig()),
    )
    calls = []
    measure = conservation_mod.measure_conservation

    def counted(*args, **kwargs):
        calls.append(args[1])
        return measure(*args, **kwargs)

    judged = []
    drift = guard_mod.relative_drift

    def spied(initial, current):
        judged.append(current)
        return drift(initial, current)

    monkeypatch.setattr(simulation_mod, "measure_conservation", counted)
    monkeypatch.setattr(conservation_mod, "measure_conservation", counted)
    monkeypatch.setattr(guard_mod, "relative_drift", spied)
    sim.run(n_steps=3)
    assert sim.step_guard.checks == 3
    assert len(calls) == 1 + 3  # the run's initial snapshot, then one a step
    assert len(judged) == len(sim.history) == 3
    assert all(j is s.conservation for j, s in zip(judged, sim.history))
    # The snapshot the guard judged is the one it would have measured.
    fresh = measure(sim.particles, sim.time, sim.potential_energy)
    for name in ("time", "total_mass", "kinetic_energy", "internal_energy",
                 "potential_energy", "momentum", "angular_momentum"):
        assert np.array_equal(getattr(judged[-1], name), getattr(fresh, name)), name


