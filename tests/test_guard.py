"""Self-healing step guard: ladder rungs, bitwise healing, terminal path."""

import numpy as np
import pytest

import repro.resilience.checkpoint as checkpoint_mod
from repro.core.config import RunConfig
from repro.core.config import ExecConfig
from repro.resilience.chaos import (
    NumericalChaosPolicy,
    NumericalFault,
    parse_numerical_faults,
)
from repro.resilience.checkpoint import ResilienceConfig, read_checkpoint
from repro.resilience.guard import (
    DEFAULT_LADDER,
    DRIFT_HEADROOM,
    SNAPSHOT_RING,
    GuardConfig,
    StepGuard,
    UnrecoverableStepError,
)
from repro.scenarios import get_scenario

STATE_FIELDS = ("x", "v", "a", "rho", "u", "h", "p", "cs", "du")


def _state(sim):
    return {k: getattr(sim.particles, k).copy() for k in STATE_FIELDS}


def _assert_bitwise(sim, golden):
    for k, v in golden.items():
        assert np.array_equal(getattr(sim.particles, k), v), f"{k} differs"


def _nan_policy(fires=1, step=3, array="rho", **kw):
    return NumericalChaosPolicy(
        [NumericalFault(step=step, array=array, fires=fires, **kw)]
    )


def _guarded(
    scenario, *, chaos=None, guard=None, resilience=None, exec=ExecConfig()
):
    rc = RunConfig(
        exec=exec,
        resilience=resilience,
        guard=guard or GuardConfig(drift_tolerances=scenario.invariants),
        numerical_chaos=chaos,
    )
    return scenario.make_simulation(test=True, run_config=rc)


# ----------------------------------------------------------------------
# Acceptance: injected NaN mid-run -> bitwise-identical healed run,
# for two scenarios and three poisoned arrays: density, forces, and
# positions — which the tree build refuses with a ValueError.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["square-patch", "sod"])
@pytest.mark.parametrize("array", ["rho", "a", "x"])
def test_nan_heals_bitwise_identical(name, array):
    scenario = get_scenario(name)
    golden_sim = scenario.make_simulation(test=True)
    golden_sim.run(n_steps=6)
    golden = _state(golden_sim)

    sim = _guarded(scenario, chaos=_nan_policy(array=array))
    sim.run(n_steps=6)
    _assert_bitwise(sim, golden)
    assert sim.time == golden_sim.time
    rep = sim.step_guard.report()
    assert rep.failures == 1
    assert rep.rollbacks == 1
    assert rep.rung_heals["retry"] == 1
    assert rep.terminal is False
    # Recovery is visible in the trace as RECOVERY-state guard spans.
    recovery = [
        ev for ev in sim.tracer.events if ev.phase.startswith("guard-")
    ]
    assert recovery, "guard recovery must appear in the span timeline"
    from repro.observability import State

    assert all(ev.state is State.RECOVERY for ev in recovery)


def test_post_site_fault_heals_bitwise():
    scenario = get_scenario("square-patch")
    golden_sim = scenario.make_simulation(test=True)
    golden_sim.run(n_steps=5)
    golden = _state(golden_sim)

    sim = _guarded(scenario, chaos=_nan_policy(step=2, array="u", site="post"))
    sim.run(n_steps=5)
    _assert_bitwise(sim, golden)
    assert sim.step_guard.report().rung_heals["retry"] == 1


# ----------------------------------------------------------------------
# Every ladder rung is reachable deterministically: a fault with a
# firing budget of k poisons the first try plus k-1 retries, so the
# heal lands on rung k.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fires,rung",
    [(1, "retry"), (2, "dt-backoff"), (3, "degrade"), (4, "checkpoint-restore")],
)
def test_each_ladder_rung_heals(fires, rung):
    scenario = get_scenario("square-patch")
    sim = _guarded(scenario, chaos=_nan_policy(fires=fires))
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.rung_heals[rung] == 1
    assert rep.failures == fires
    assert {r for r, n in rep.rung_heals.items() if n} == {rung}
    assert sim.step_index == 6
    assert all(np.isfinite(sim.particles.rho).all() for _ in [0])


def test_degrade_rung_is_bitwise_neutral():
    scenario = get_scenario("square-patch")
    golden_sim = scenario.make_simulation(test=True)
    golden_sim.run(n_steps=6)
    golden = _state(golden_sim)

    # fires=3 -> healed on the degrade rung (numpy, no threads).  The
    # rollback undoes the dt-backoff rung, and retry and degrade are
    # bitwise-neutral, so the run still matches golden.
    sim = _guarded(
        scenario,
        chaos=_nan_policy(fires=3),
    )
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.degraded is True
    assert rep.rung_heals["degrade"] == 1
    # The rung really ran: numpy phases, no threads.
    assert sim.backend.name == "numpy" and sim._phases.workers == 0
    _assert_bitwise(sim, golden)


def test_degrade_rung_mid_run_on_cffi_continues_on_numpy(tmp_path):
    """A compiled run that degrades mid-run carries on with the numpy
    phases: bit for bit the numpy run restored from a checkpoint of the
    step it degraded at."""
    from repro.backend import available_backends
    from repro.resilience.checkpoint import (
        Checkpoint,
        read_checkpoint,
        write_checkpoint,
    )

    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")
    scenario = get_scenario("square-patch")
    compiled = ExecConfig(backend="cffi")
    with scenario.make_simulation(
        test=True, run_config=RunConfig(exec=compiled)
    ) as plain:
        plain.run(n_steps=3)
        write_checkpoint(tmp_path / "step3.ckpt", Checkpoint.of_simulation(plain))

    with _guarded(
        scenario,
        chaos=_nan_policy(step=3, fires=3),
        exec=compiled,
    ) as sim:
        sim.run(n_steps=6)
        assert sim.step_guard.report().rung_heals["degrade"] == 1
        assert sim.backend.name == "numpy"
        healed = _state(sim)

    with scenario.make_simulation(test=True) as reference:
        read_checkpoint(tmp_path / "step3.ckpt").restore_into(reference)
        reference.run(n_steps=3)
        _assert_bitwise(reference, healed)


def test_degrade_rung_stops_the_phase_threads():
    """Same fault on a threaded run: the degrade rung also means
    ``workers -> 0``, and the healed run still matches the golden."""
    import threading

    scenario = get_scenario("square-patch")
    golden_sim = scenario.make_simulation(test=True)
    golden_sim.run(n_steps=6)

    with _guarded(
        scenario,
        chaos=_nan_policy(fires=3),
        exec=ExecConfig(workers=2),
    ) as sim:
        sim.run(n_steps=6)
        assert sim.step_guard.report().rung_heals["degrade"] == 1
        assert sim._phases.workers == 0
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-phase")
        ]
        _assert_bitwise(sim, _state(golden_sim))


def test_dt_backoff_rung_shrinks_dt():
    scenario = get_scenario("square-patch")
    sim = _guarded(scenario, chaos=_nan_policy(fires=2))
    before = None
    # Record dt of the healthy run at the failing step for comparison.
    ref = scenario.make_simulation(test=True)
    ref.run(n_steps=6)
    before = ref.history[3].dt
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.rung_heals["dt-backoff"] == 1
    # The healed step ran with a reduced dt (CFL backoff).
    assert sim.history[3].dt < before


def test_checkpoint_restore_rung_uses_disk(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint_mod, "KEEP", 4)
    scenario = get_scenario("square-patch")
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    sim = _guarded(scenario, chaos=_nan_policy(fires=4), resilience=res)
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.checkpoint_restores == 1
    assert rep.rung_heals["checkpoint-restore"] == 1
    assert sim.step_index == 6


# ----------------------------------------------------------------------
# Terminal path
# ----------------------------------------------------------------------
def test_persistent_fault_reaches_terminal(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint_mod, "KEEP", 3)
    scenario = get_scenario("square-patch")
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    chaos = NumericalChaosPolicy(
        [NumericalFault(step=3, array="rho", kind="nan", once=False)]
    )
    sim = _guarded(scenario, chaos=chaos, resilience=res)
    with pytest.raises(UnrecoverableStepError) as excinfo:
        sim.run(n_steps=6)
    pm = excinfo.value.post_mortem
    assert pm.step == 3
    assert set(DEFAULT_LADDER) <= set(pm.rungs_tried)
    assert any("non-finite" in f for f in pm.findings)
    assert pm.attempts == 1 + len(DEFAULT_LADDER)  # first try + one per rung
    # The guard rolled the driver back to a healthy state...
    assert np.isfinite(sim.particles.rho).all()
    # ...and wrote a last-resort restart file describing it.
    assert pm.last_resort_checkpoint is not None
    cp = read_checkpoint(pm.last_resort_checkpoint)
    assert cp.step_index == sim.step_index
    # The post-mortem is JSON-clean and the paragraph names the ladder.
    import json

    json.dumps(pm.as_dict())
    text = pm.describe()
    assert "degradation" in text and "step 3" in text


def test_terminal_without_checkpointing():
    scenario = get_scenario("square-patch")
    chaos = NumericalChaosPolicy(
        [NumericalFault(step=2, array="rho", kind="neg", once=False)]
    )
    sim = _guarded(scenario, chaos=chaos)
    with pytest.raises(UnrecoverableStepError) as excinfo:
        sim.run(n_steps=5)
    pm = excinfo.value.post_mortem
    assert pm.last_resort_checkpoint is None
    assert "no checkpointing was configured" in pm.describe()


# ----------------------------------------------------------------------
# Health-check detectors beyond finiteness
# ----------------------------------------------------------------------
def test_dt_collapse_detected_and_healed():
    scenario = get_scenario("square-patch")
    # A huge sound speed collapses the CFL dt by ~12 orders of magnitude.
    sim = _guarded(scenario, chaos=_nan_policy(array="cs", kind="huge"))
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.failures >= 1
    assert any(
        "dt" in f or "range" in f
        for inc in rep.incidents
        for f in inc["findings"]
    )
    assert rep.terminal is False


def test_drift_violation_detected():
    scenario = get_scenario("square-patch")
    # Zeroing a mass breaks exact mass conservation without any
    # non-finite value: only the drift ledger can catch it.
    chaos = NumericalChaosPolicy(
        [NumericalFault(step=3, array="m", kind="set", value=0.0)]
    )
    sim = _guarded(scenario, chaos=chaos)
    sim.run(n_steps=6)
    rep = sim.step_guard.report()
    assert rep.failures >= 1
    assert any(
        "drift" in f or "range" in f
        for inc in rep.incidents
        for f in inc["findings"]
    )


@pytest.mark.xfail(
    strict=True,
    raises=UnrecoverableStepError,
    reason="BH momentum drift vs the 1e-9 promise — ROADMAP item 9",
)
def test_guard_evrard_above_test_size():
    """``--guard`` on Evrard off its test size (``n_target`` 400) should
    take its first step.  It stops at step 0: Barnes-Hut forces are not
    antisymmetric, so the momentum drifts past the scenario's 1e-9 bound
    (x DRIFT_HEADROOM) on every rung.  When the gravity walk conserves
    momentum this test passes, and its xfail mark goes."""
    from repro.service.runner import build_simulation
    from repro.service.spec import JobSpec

    spec = JobSpec("evrard", overrides={"n_target": 400}, n_steps=1, guard=True)
    sim, _ = build_simulation(spec)
    with sim:
        sim.run(n_steps=1)
    assert sim.step_guard.report().failures == 0


def test_raising_step_is_recovered():
    scenario = get_scenario("square-patch")

    class Boom(RuntimeError):
        pass

    sim = _guarded(scenario)
    real_step = sim.step
    calls = {"n": 0}

    def exploding_step():
        calls["n"] += 1
        if calls["n"] == 3:
            raise Boom("synthetic step explosion")
        return real_step()

    sim.step = exploding_step
    sim.run(n_steps=5)
    rep = sim.step_guard.report()
    assert rep.failures == 1
    assert any(
        "Boom" in f for inc in rep.incidents for f in inc["findings"]
    )
    assert sim.step_index == 5


# ----------------------------------------------------------------------
# Resume interplay: the guard's last-resort checkpoint supports
# a bit-identical resume (two scenarios; from the file as written, and
# as versions before 12.0.0 wrote it, with the Verlet cache's list).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["square-patch", "sod"])
@pytest.mark.parametrize("stored_list", [False, True])
def test_last_resort_checkpoint_autoresume_bitwise(
    tmp_path, name, stored_list, store_list_in_checkpoint
):
    scenario = get_scenario(name)
    golden_sim = scenario.make_simulation(test=True)
    golden_sim.run(n_steps=10)
    golden = _state(golden_sim)

    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=3)
    chaos = NumericalChaosPolicy(
        [NumericalFault(step=6, array="rho", kind="nan", once=False)]
    )
    sim = _guarded(scenario, chaos=chaos, resilience=res)
    with pytest.raises(UnrecoverableStepError) as excinfo:
        sim.run(n_steps=10)
    last_resort = excinfo.value.post_mortem.last_resort_checkpoint
    assert last_resort is not None
    died_at = sim.step_index
    if stored_list:
        store_list_in_checkpoint(last_resort, sim.box)

    # Fresh driver, same config, no faults: resume from the guard's
    # last-resort file and finish the run.  Must match the uninterrupted
    # golden run bit for bit.
    sim2 = _guarded(scenario, resilience=res)
    assert sim2.resume() is True and sim2.step_index == died_at
    sim2.run(n_steps=10 - died_at)
    assert sim2.step_index == 10
    assert sim2.time == golden_sim.time
    _assert_bitwise(sim2, golden)


# ----------------------------------------------------------------------
# Overhead-relevant plumbing and unit checks
# ----------------------------------------------------------------------
def test_guard_off_means_no_guard_objects():
    scenario = get_scenario("square-patch")
    sim = scenario.make_simulation(test=True)
    assert sim.step_guard is None
    assert sim.numerical_chaos is None


def test_healthy_run_guard_counters():
    scenario = get_scenario("square-patch")
    sim = _guarded(scenario)
    sim.run(n_steps=4)
    rep = sim.step_guard.report()
    assert rep.checks == 4
    assert rep.healthy_steps == 4
    assert rep.failures == 0
    assert rep.rollbacks == 0
    assert rep.snapshots == 5  # baseline + one per healthy step
    report = sim.report()
    assert report.guard is not None
    assert report.guard.counters()["checks"] == 4
    assert report.guard.counters()["failures"] == 0
    import json

    json.dumps(report.as_dict())
    assert "guard:" in report.summary()


def test_guard_checkpoints_only_healthy_states(tmp_path, monkeypatch):
    # With the guard on, the checkpoint hook runs after the health check:
    # no rolling checkpoint may capture the poisoned state.  Every write
    # is checked as it happens, not only the files the window keeps.
    written = []
    real_write = checkpoint_mod.write_checkpoint

    def checked_write(path, cp, **kw):
        written.append(cp.step_index)
        for name, arr in cp.particles.state_arrays():
            assert np.isfinite(arr).all(), (
                f"poisoned checkpoint {path.name} array {name}"
            )
        return real_write(path, cp, **kw)

    monkeypatch.setattr(checkpoint_mod, "write_checkpoint", checked_write)
    scenario = get_scenario("square-patch")
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    sim = _guarded(scenario, chaos=_nan_policy(), resilience=res)
    sim.run(n_steps=6)
    assert sim.step_guard.report().failures == 1
    assert written == [1, 2, 3, 4, 5, 6]


def test_snapshot_ring_is_bounded():
    scenario = get_scenario("square-patch")
    sim = _guarded(scenario)
    sim.run(n_steps=8)
    assert len(sim.step_guard._ring) == SNAPSHOT_RING
    assert sim.step_guard.report().snapshots == 9


def test_guard_tolerance_resolution():
    cfg = GuardConfig(drift_tolerances={"mass": 1e-12})
    assert cfg.tolerance("mass") == pytest.approx(1e-12 * DRIFT_HEADROOM)
    assert cfg.tolerance("momentum") == 1e-4  # loose default
    assert np.isinf(GuardConfig().tolerance("unheard-of"))


def test_standalone_guard_health_check():
    scenario = get_scenario("square-patch")
    sim = scenario.make_simulation(test=True)
    sim.run(n_steps=2)
    guard = StepGuard(GuardConfig(drift_tolerances=scenario.invariants))
    assert guard.check_health(sim, sim.history[-1]) == []
    sim.particles.rho[0] = np.nan
    findings = guard.check_health(sim, sim.history[-1])
    assert any("rho" in f for f in findings)


# ----------------------------------------------------------------------
# Numerical chaos policy unit coverage
# ----------------------------------------------------------------------
def test_numerical_fault_kinds():
    scenario = get_scenario("square-patch")
    sim = scenario.make_simulation(test=True)
    p = sim.particles
    NumericalFault(step=0, array="rho", kind="nan").inject(p)
    assert np.isnan(p.rho[0])
    NumericalFault(step=0, array="u", kind="inf", index=1).inject(p)
    assert np.isinf(p.u[1])
    NumericalFault(step=0, array="rho", kind="neg", index=2).inject(p)
    assert p.rho[2] < 0
    NumericalFault(step=0, array="cs", kind="huge", index=3).inject(p)
    assert p.cs[3] == 1e12
    before = p.a.ravel()[4]
    NumericalFault(step=0, array="a", kind="bitflip", index=4, bit=62).inject(p)
    assert p.a.ravel()[4] != before
    NumericalFault(step=0, array="m", kind="set", index=5, value=7.5).inject(p)
    assert p.m[5] == 7.5


def test_numerical_fault_in_x_is_what_the_next_evaluation_reads():
    """A fault written into ``x`` between two rate evaluations — on a
    Verlet hit, so both see the same list object — is what the next
    evaluation's pair geometry is computed from: the pair-context run
    equals the context-free one, and differs from the unfaulted rates."""
    scenario = get_scenario("square-patch")
    sims = [scenario.make_simulation(test=True) for _ in range(2)]
    rho_clean = []
    for sim in sims:
        sim.run(n_steps=1)
        rho_clean.append(sim.particles.rho.copy())
        p = sim.particles
        moved = p.x.ravel()[0] + 0.05 * p.h[0]  # inside the skin budget
        NumericalFault(step=0, array="x", kind="set", value=moved).inject(p)
    engine, reference = sims
    reference.degrade_to_serial()  # no pair context at all
    for sim in sims:
        hits = sim.report().neighbor_cache["hits"]
        sim.compute_rates()
        assert sim.report().neighbor_cache["hits"] == hits + 1
    _assert_bitwise(engine, _state(reference))
    assert not np.array_equal(engine.particles.rho, rho_clean[0])


def test_numerical_policy_fire_budget():
    fault = NumericalFault(step=1, array="rho", fires=2)
    policy = NumericalChaosPolicy([fault])
    scenario = get_scenario("square-patch")
    p = scenario.make_simulation(test=True).particles
    assert policy.apply(0, "rates", p) == []  # wrong step
    assert policy.apply(1, "post", p) == []  # wrong site
    assert len(policy.apply(1, "rates", p)) == 1
    assert len(policy.apply(1, "rates", p)) == 1
    assert policy.apply(1, "rates", p) == []  # budget spent
    assert policy.fired == 1 and policy.exhausted
    policy.reset()
    assert len(policy.apply(1, "rates", p)) == 1


def test_parse_numerical_faults():
    policy = parse_numerical_faults("nan:rho@3, huge:cs@4:post, nan:a@2*3, inf:u@1!")
    f = policy.faults
    assert (f[0].kind, f[0].array, f[0].step, f[0].site) == ("nan", "rho", 3, "rates")
    assert (f[1].kind, f[1].site) == ("huge", "post")
    assert f[2].fires == 3
    assert f[3].once is False
    for bad in ("", "rho@3", "nan:rho", "zap:rho@3", "nan:nope@3"):
        with pytest.raises(ValueError):
            parse_numerical_faults(bad)
