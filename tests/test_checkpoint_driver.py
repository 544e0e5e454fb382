"""Checkpoint/restart wired into the real driver loop.

The satellite acceptance: run 10 steps with a rolling checkpoint at 5,
abandon the run at 7, resume in a fresh driver and finish — the
final positions/velocities and dt sequence must be bit-identical to an
uninterrupted 10-step run, for square patch + Evrard.  A checkpoint
holds no neighbour list: the resumed driver rebuilds its Verlet cache,
and a file that holds one (written before 12.0.0) resumes the same way.
Plus the file-level guarantees: atomic writes (no ``*.tmp`` residue),
``latest`` pointer, torn-file fallback and pruning.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.simulation import Simulation
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.resilience import (
    CheckpointManager,
    ResilienceConfig,
    find_latest_checkpoint,
    read_checkpoint,
)
from repro.timestepping.steppers import TimestepParams

FIELDS = ("x", "v", "rho", "u", "p", "a", "du")
TS = TimestepParams(use_energy_criterion=False)


def _square_case():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=10))
    config = SimulationConfig().with_(n_neighbors=30, timestep_params=TS)
    return particles, box, eos, config


def _evrard_case():
    particles, box, eos = make_evrard(EvrardConfig(n_target=1000))
    config = SimulationConfig().with_(
        n_neighbors=30, gravity="quadrupole", timestep_params=TS
    )
    return particles, box, eos, config


CASES = {"square-patch": _square_case, "evrard": _evrard_case}


def _sim(case: str, resilience=None, backend="numpy") -> Simulation:
    particles, box, eos, config = CASES[case]()
    run = RunConfig(exec=ExecConfig(backend=backend), resilience=resilience)
    return Simulation(particles, box, eos, config=config, run_config=run)


def _final_state(sim: Simulation):
    return {f: getattr(sim.particles, f).copy() for f in FIELDS}


_reference: dict = {}


def _uninterrupted(case: str):
    if case not in _reference:
        with _sim(case) as sim:
            sim.run(n_steps=10)
            _reference[case] = (_final_state(sim), [s.dt for s in sim.history])
    return _reference[case]


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_resume_is_bit_identical_to_uninterrupted_run(
    case, cache, tmp_path, store_list_in_checkpoint
):
    """``cache-off`` resumes from the file as the driver writes it (no
    neighbour list); ``cache-on`` from the same file rewritten to hold
    the Verlet cache's list, as files before 12.0.0 did."""
    ref_state, ref_dts = _uninterrupted(case)
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=5)
    # Interrupted run: 7 of 10 steps, rolling checkpoint lands at step 5.
    with _sim(case, resilience=res) as interrupted:
        interrupted.run(n_steps=7)
    latest = find_latest_checkpoint(tmp_path)
    assert latest is not None and latest.name == "ckpt_00000005.ckpt"
    if cache:
        store_list_in_checkpoint(latest, interrupted.box)
    # Fresh driver resumes from step 5 and finishes the remaining 5.
    with _sim(case, resilience=res) as resumed:
        assert resumed.resume() is True and resumed.step_index == 5
        resumed.run(n_steps=5)
        assert resumed.step_index == 10
        state = _final_state(resumed)
        dts = [s.dt for s in resumed.history]
    for f in FIELDS:
        assert np.array_equal(state[f], ref_state[f]), (
            f"{case} ({'cache' if cache else 'no-cache'}): {f!r} not bit-identical"
        )
    assert dts == ref_dts[5:], "resumed dt sequence diverged"


def test_checkpointing_does_not_perturb_the_trajectory(tmp_path):
    """A checkpointing run ends bit-identical to a checkpoint-free one."""
    ref_state, ref_dts = _uninterrupted("square-patch")
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=3)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=10)
        assert sim.checkpoint_manager.checkpoints_written >= 3
        state = _final_state(sim)
        assert [s.dt for s in sim.history] == ref_dts
    for f in FIELDS:
        assert np.array_equal(state[f], ref_state[f])


def test_rolling_window_prunes_and_leaves_no_tmp(tmp_path, monkeypatch):
    import repro.resilience.checkpoint as checkpoint_mod

    monkeypatch.setattr(checkpoint_mod, "KEEP", 2)
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=8)
    names = sorted(os.listdir(tmp_path))
    assert names == ["ckpt_00000006.ckpt", "ckpt_00000008.ckpt", "latest"]
    assert (tmp_path / "latest").read_text().strip() == "ckpt_00000008.ckpt"


def test_resume_reads_the_newest_checkpoint_once(tmp_path, monkeypatch):
    """The search's read is the restore's: one ``read_checkpoint`` per
    candidate probed, and the state comes back bitwise."""
    import repro.resilience.checkpoint as checkpoint_mod

    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=4)
        saved = _final_state(sim)
        saved_clock = (sim.time, sim.step_index)
    reads = []
    real_read = checkpoint_mod.read_checkpoint
    monkeypatch.setattr(
        checkpoint_mod, "read_checkpoint",
        lambda path, **kw: reads.append(Path(path).name) or real_read(path, **kw),
    )
    with _sim("square-patch", resilience=res) as sim:
        assert sim.resume() is True
        assert reads == ["ckpt_00000004.ckpt"]
        assert (sim.time, sim.step_index) == saved_clock
        for f in FIELDS:
            assert np.array_equal(getattr(sim.particles, f), saved[f]), f
    # A torn newest file costs one read of it, then one of the fallback.
    newest = tmp_path / "ckpt_00000004.ckpt"
    newest.write_bytes(newest.read_bytes()[:100])
    reads.clear()
    with _sim("square-patch", resilience=res) as sim:
        assert sim.resume() is True
        assert sim.step_index == 2
    assert reads == ["ckpt_00000004.ckpt", "ckpt_00000002.ckpt"]


def test_torn_latest_falls_back_to_previous_checkpoint(tmp_path):
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=4)
    newest = tmp_path / "ckpt_00000004.ckpt"
    # Tear the newest file (crash mid-write of a *non*-atomic writer).
    newest.write_bytes(newest.read_bytes()[:100])
    found = find_latest_checkpoint(tmp_path)
    assert found is not None and found.name == "ckpt_00000002.ckpt"
    with _sim("square-patch", resilience=res) as sim:
        assert sim.resume() is True
        assert sim.step_index == 2


def test_autoresume_with_empty_directory_starts_fresh(tmp_path):
    from repro.service.runner import resume_and_run

    res = ResilienceConfig(checkpoint_dir=str(tmp_path / "nope"), checkpoint_every=100)
    with _sim("square-patch", resilience=res) as sim:
        assert sim.resume() is False
        resume_and_run(sim, 1)
        assert sim.step_index == 1


def test_explicit_resume_path(tmp_path):
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=4)
    with _sim("square-patch") as sim:
        assert sim.resume(tmp_path / "ckpt_00000002.ckpt") is True
        assert sim.step_index == 2 and sim.time > 0.0


def test_resume_rebuilds_the_list_once_and_ends_bitwise_equal(
    tmp_path, store_list_in_checkpoint
):
    """A checkpoint holds particle state only: the resumed driver starts
    with an empty Verlet cache, rebuilds the list at its first evaluation
    and ends on the uninterrupted run's bits — also from a file that
    holds a list, which the restore ignores."""
    ref_state, ref_dts = _uninterrupted("square-patch")
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=4)
    with _sim("square-patch", resilience=res) as interrupted:
        interrupted.run(n_steps=5)
    latest = find_latest_checkpoint(tmp_path)
    assert not [k for k in read_checkpoint(latest).extras if k.startswith("ncache")]
    for stored in (False, True):
        if stored:
            store_list_in_checkpoint(latest, interrupted.box)
        with _sim("square-patch") as resumed:
            assert resumed.resume(latest) is True and resumed.step_index == 4
            assert resumed._ncache._nlist is None
            resumed.step()
            assert resumed._ncache.stats.builds == 1
            resumed.run(n_steps=5)
            state, dts = _final_state(resumed), [s.dt for s in resumed.history]
        for f in FIELDS:
            assert np.array_equal(state[f], ref_state[f]), (stored, f)
        assert dts == ref_dts[4:]


@pytest.mark.parametrize("column", ["none", "int32", "int64"])
def test_compiled_resume_is_bit_identical_whatever_the_stored_column(
    column, tmp_path, store_list_in_checkpoint
):
    """A cffi run's checkpoint holds no list; a file written before
    12.0.0 holds the cached list, int32 (or int64 before the column was
    narrowed).  Resuming from any of them rebuilds the list and continues
    bit for bit."""
    from repro.backend import available_backends

    if not available_backends()["cffi"]:
        pytest.skip("no C toolchain on this host")

    with _sim("square-patch", backend="cffi") as whole:
        whole.run(n_steps=8)
        ref_state, ref_dts = _final_state(whole), [s.dt for s in whole.history]
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=4)
    with _sim("square-patch", resilience=res, backend="cffi") as interrupted:
        interrupted.run(n_steps=5)
    latest = find_latest_checkpoint(tmp_path)
    cp = read_checkpoint(latest)
    assert cp.step_index == 4 and not cp.extras
    if column != "none":
        store_list_in_checkpoint(latest, interrupted.box, np.dtype(column))
    with _sim("square-patch", resilience=res, backend="cffi") as resumed:
        assert resumed.resume() is True
        resumed.run(n_steps=4)
        # The first evaluation after the restore built the list in C.
        assert resumed._ncache.stats.builds >= 1
        assert resumed._nlist.indices.dtype == np.int32
        state, dts = _final_state(resumed), [s.dt for s in resumed.history]
    for f in FIELDS:
        assert np.array_equal(state[f], ref_state[f]), f
    assert dts == ref_dts[4:]


def test_restore_without_cache_state_invalidates(tmp_path):
    """A restore drops the list the cache held for the pre-restore
    positions: the next step rebuilds it."""
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=3)
        assert sim._ncache._nlist is not None
        assert sim.resume() is True and sim.step_index == 2
        assert sim._ncache._nlist is None
        builds = sim._ncache.stats.builds
        sim.step()
        assert sim._ncache.stats.builds == builds + 1


def test_resume_and_guard_disk_restore_leave_equal_drivers(tmp_path):
    """``Simulation.resume()`` and the guard's checkpoint-restore rung go
    through the one restore function: from the same checkpoint, each a
    step into its own run, they leave bitwise-equal drivers."""
    from dataclasses import replace

    from repro.resilience.guard import GuardConfig

    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=3)
    with _sim("evrard", resilience=res) as writer:
        writer.run(n_steps=3)
    # Neither reader writes a checkpoint of its own before the restore.
    quiet = replace(res, checkpoint_every=100)
    with _sim("evrard", resilience=quiet) as resumed:
        resumed.run(n_steps=1)
        assert resumed.resume() is True
    particles, box, eos, config = _evrard_case()
    guarded = Simulation(
        particles, box, eos, config=config,
        run_config=RunConfig(resilience=quiet, guard=GuardConfig()),
    )
    with guarded:
        guarded.run(n_steps=1)
        assert guarded.step_guard._restore_from_disk(guarded) is True
    assert guarded.step_guard.checkpoint_restores == 1
    for sim in (resumed, guarded):
        assert sim.step_index == 3 and sim._rates_current
    assert dict(resumed.particles.state_arrays()).keys() == dict(
        guarded.particles.state_arrays()
    ).keys()
    for (name, want), (_, got) in zip(
        resumed.particles.state_arrays(), guarded.particles.state_arrays()
    ):
        assert np.array_equal(want, got), name
    assert resumed.time == guarded.time
    assert resumed.stepper._dt_prev == guarded.stepper._dt_prev is not None
    assert resumed._max_mu == guarded._max_mu
    assert resumed.potential_energy == guarded.potential_energy


def test_checkpoint_meta_round_trips_stepper_memory(tmp_path):
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=3)
    with _sim("square-patch", resilience=res) as sim:
        sim.run(n_steps=3)
        dt_prev = sim.stepper._dt_prev
    cp = read_checkpoint(tmp_path / "ckpt_00000003.ckpt")
    assert cp.meta["dt_prev"] == dt_prev
    assert cp.step_index == 3


def test_resilience_config_validation(tmp_path):
    """Two knobs, ``checkpoint_every >= 1``: there is no auto-K (0), and
    the rolling window and I/O budget are module constants."""
    from dataclasses import fields

    assert [f.name for f in fields(ResilienceConfig)] == [
        "checkpoint_dir", "checkpoint_every",
    ]
    for every in (-1, 0):
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_every=every)
    mgr = CheckpointManager(ResilienceConfig(checkpoint_dir=str(tmp_path)))
    assert mgr.stats()["interval_steps"] == 10
