"""Checkpoint I/O hardening: retry-with-backoff, atomicity, terminal errors."""

import errno

import numpy as np
import pytest

import repro.resilience.checkpoint as ckpt_mod
from repro.core.config import RunConfig
from repro.resilience.chaos import CheckpointIOChaos
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointIOError,
    CheckpointManager,
    ResilienceConfig,
    find_latest_checkpoint,
    read_checkpoint,
    retry_io,
    write_checkpoint,
)
from repro.scenarios import get_scenario


def _sim_with_manager(tmp_path, monkeypatch, io_retries, keep=None):
    """A checkpoint-every-step driver under an I/O budget of
    ``io_retries`` attempts with no backoff (and, given ``keep``, that
    rolling window)."""
    monkeypatch.setattr(ckpt_mod, "IO_RETRIES", io_retries)
    monkeypatch.setattr(ckpt_mod, "IO_BACKOFF", 0.0)
    if keep is not None:
        monkeypatch.setattr(ckpt_mod, "KEEP", keep)
    res = ResilienceConfig(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    scenario = get_scenario("square-patch")
    sim = scenario.make_simulation(
        test=True, run_config=RunConfig(resilience=res)
    )
    return sim


# ----------------------------------------------------------------------
# retry_io unit behaviour
# ----------------------------------------------------------------------
def test_retry_io_retries_transient_oserror():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError(errno.ENOSPC, "disk full")
        return "ok"

    assert retry_io(flaky, attempts=3, backoff=0.0) == "ok"
    assert calls["n"] == 3


def test_retry_io_exhaustion_is_terminal():
    def broken():
        raise OSError(errno.EIO, "dead disk")

    with pytest.raises(CheckpointIOError) as excinfo:
        retry_io(broken, attempts=2, backoff=0.0, what="write to /dev/null")
    msg = str(excinfo.value)
    assert "write to /dev/null" in msg and "2 attempt(s)" in msg
    assert isinstance(excinfo.value.__cause__, OSError)


def test_retry_io_does_not_retry_corruption():
    calls = {"n": 0}

    def corrupt():
        calls["n"] += 1
        raise CheckpointError("CRC mismatch in array 'rho'")

    with pytest.raises(CheckpointError):
        retry_io(corrupt, attempts=5, backoff=0.0)
    assert calls["n"] == 1  # retrying cannot fix a bad CRC


def test_retry_io_backoff_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr(ckpt_mod._time, "sleep", sleeps.append)

    def broken():
        raise OSError(errno.EINTR, "interrupted")

    with pytest.raises(CheckpointIOError):
        retry_io(broken, attempts=3, backoff=0.1)
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]


# ----------------------------------------------------------------------
# Manager-level behaviour under injected I/O faults
# ----------------------------------------------------------------------
def test_transient_write_failures_absorbed(tmp_path, monkeypatch):
    sim = _sim_with_manager(tmp_path, monkeypatch, io_retries=3)
    sim.checkpoint_manager.io_chaos = CheckpointIOChaos(fail_writes=2)
    sim.run(n_steps=2)
    # Both failed attempts were retried into successful checkpoints.
    assert sim.checkpoint_manager.checkpoints_written == 2
    assert sim.checkpoint_manager.io_retries_used == 2
    assert find_latest_checkpoint(tmp_path) is not None
    stats = sim.checkpoint_manager.stats()
    assert stats["io_retries"] == 2
    assert sim.report().checkpoint["io_retries"] == 2


def test_write_exhaustion_raises_terminal(tmp_path, monkeypatch):
    sim = _sim_with_manager(tmp_path, monkeypatch, io_retries=2)
    sim.checkpoint_manager.io_chaos = CheckpointIOChaos(fail_writes=100)
    with pytest.raises(CheckpointIOError) as excinfo:
        sim.run(n_steps=1)
    assert "checkpoint write" in str(excinfo.value)
    # No torn tmp files left behind.
    assert list(tmp_path.glob("*.tmp")) == []


def test_previous_checkpoint_survives_failed_write(tmp_path, monkeypatch):
    sim = _sim_with_manager(tmp_path, monkeypatch, io_retries=1, keep=1)
    sim.run(n_steps=1)
    good = find_latest_checkpoint(tmp_path)
    assert good is not None
    before = good.read_bytes()
    # Next write fails terminally: the old file must stay intact.
    sim.checkpoint_manager.io_chaos = CheckpointIOChaos(fail_writes=100)
    with pytest.raises(CheckpointIOError):
        sim.step()
        sim.checkpoint_manager.after_step(sim)
    assert good.read_bytes() == before
    assert find_latest_checkpoint(tmp_path) == good
    assert list(tmp_path.glob("*.tmp")) == []


def test_transient_read_failures_absorbed_on_resume(tmp_path, monkeypatch):
    sim = _sim_with_manager(tmp_path, monkeypatch, io_retries=3)
    sim.run(n_steps=3)
    state = sim.particles.x.copy()

    sim2 = _sim_with_manager(tmp_path, monkeypatch, io_retries=3)
    sim2.checkpoint_manager.io_chaos = CheckpointIOChaos(fail_reads=2)
    assert sim2.resume() is True
    assert sim2.step_index == sim.step_index
    assert np.array_equal(sim2.particles.x, state)


def test_read_exhaustion_raises_terminal(tmp_path, monkeypatch):
    sim = _sim_with_manager(tmp_path, monkeypatch, io_retries=2)
    sim.run(n_steps=2)
    sim2 = _sim_with_manager(tmp_path, monkeypatch, io_retries=2)
    sim2.checkpoint_manager.io_chaos = CheckpointIOChaos(fail_reads=100)
    with pytest.raises(CheckpointIOError) as excinfo:
        sim2.resume()
    assert "checkpoint restore" in str(excinfo.value)


def test_io_chaos_budget_accounting(tmp_path):
    chaos = CheckpointIOChaos(fail_writes=1, fail_reads=1)
    with pytest.raises(OSError):
        chaos.check("write")
    chaos.check("write")  # budget spent -> silent
    with pytest.raises(OSError):
        chaos.check("read")
    chaos.check("read")
    assert chaos.writes_failed == 1 and chaos.reads_failed == 1


def test_write_checkpoint_respects_io_chaos(tmp_path):
    from repro.resilience.checkpoint import Checkpoint

    scenario = get_scenario("square-patch")
    sim = scenario.make_simulation(test=True)
    cp = Checkpoint.of_simulation(sim)
    path = tmp_path / "x.ckpt"
    with pytest.raises(OSError):
        write_checkpoint(path, cp, io_chaos=CheckpointIOChaos(fail_writes=1))
    assert not path.exists()
    write_checkpoint(path, cp)
    with pytest.raises(OSError):
        read_checkpoint(path, io_chaos=CheckpointIOChaos(fail_reads=1))
    restored = read_checkpoint(path)
    assert restored.step_index == sim.step_index

