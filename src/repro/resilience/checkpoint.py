"""Checkpoint/restart (Tables 3-4 "Checkpoint-Restart").

"All applications use standard checkpoint/restart mechanisms to enable
fault-tolerance when executing at scale" (Section 4).  A checkpoint
captures the full particle state plus the driver's scalar state (time,
step index, stepper memory); restart reconstructs a bit-identical
simulation.  Checkpoints carry CRC32 integrity sums per array so a
corrupted file is detected at restore time rather than silently resuming
from garbage.

Writes are atomic — the file is assembled under a ``*.tmp`` name, fsynced
and ``os.replace``d into place, and a ``latest`` pointer file (updated
the same way) names the newest complete checkpoint — so a crash at any
instant leaves either the previous consistent pair or the new one, never
a torn file that a resume would trip over.

:class:`CheckpointManager` drives rolling checkpoints from the step loop:
``checkpoint_every=K`` writes every K steps and keeps the newest
:data:`KEEP` files.  Resuming is an explicit call
(:meth:`~repro.core.simulation.Simulation.resume`); the one caller that
resumes a job before running it to its step count is
:func:`repro.service.runner.resume_and_run`.
"""

from __future__ import annotations

import io
import json
import os
import re
import time as _time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.conservation import ConservationState
from ..core.particles import ParticleSystem

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointIOError",
    "retry_io",
    "write_checkpoint",
    "read_checkpoint",
    "find_latest_checkpoint",
    "restore_checkpoint",
    "ResilienceConfig",
    "CheckpointManager",
]

_MAGIC = "sph-exa-repro-checkpoint"
_VERSION = 1

#: Rolling window: checkpoints older than the newest ``KEEP`` are pruned
#: after each successful write.
KEEP = 2
#: Attempts per checkpoint write/restore before a transient ``OSError``
#: is declared terminal (:class:`CheckpointIOError`).
IO_RETRIES = 3
#: Base seconds of the exponential backoff between I/O retries.
IO_BACKOFF = 0.02


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is missing, corrupt, or incompatible."""


class CheckpointIOError(CheckpointError):
    """Terminal I/O failure: every retry of a checkpoint read/write failed.

    Carries the last underlying ``OSError`` as ``__cause__`` and a
    message naming the operation and the attempt budget, so a run that
    dies on a genuinely broken filesystem reports *what* was exhausted
    instead of a mid-write traceback.
    """


def retry_io(fn, *, attempts: int = 3, backoff: float = 0.0, what: str = "checkpoint I/O"):
    """Run ``fn`` retrying transient ``OSError`` with exponential backoff.

    Disk-full, ``EINTR`` and friends are frequently transient at exascale
    job-farm scale; ``attempts`` tries are made with ``backoff * 2**k``
    seconds between them before giving up with a terminal
    :class:`CheckpointIOError`.  Non-``OSError`` exceptions (including
    :class:`CheckpointError` corruption findings) propagate immediately —
    retrying cannot fix a bad CRC.
    """
    attempts = max(1, int(attempts))
    last: Optional[OSError] = None
    for attempt in range(attempts):
        try:
            return fn()
        except CheckpointIOError:
            raise  # already-wrapped terminal failure from a nested retry
        except OSError as exc:
            last = exc
            if backoff > 0.0 and attempt + 1 < attempts:
                _time.sleep(backoff * (2 ** attempt))
    raise CheckpointIOError(
        f"{what} failed after {attempts} attempt(s): {last}"
    ) from last


@dataclass
class Checkpoint:
    """In-memory checkpoint: particle arrays + scalar driver state.

    ``extras`` holds the auxiliary arrays a file carries besides the
    particle state.  Nothing writes any: files written before 12.0.0 may
    hold the Verlet cache's list (``ncache_*``), which a restore ignores.
    """

    particles: ParticleSystem
    time: float
    step_index: int
    meta: Dict[str, Any]
    extras: Dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        particles: ParticleSystem,
        time: float,
        step_index: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> "Checkpoint":
        """Deep-copy the state (the simulation may keep running)."""
        return cls(
            particles=particles.copy(),
            time=float(time),
            step_index=int(step_index),
            meta=dict(meta or {}),
        )

    @classmethod
    def of_simulation(cls, sim) -> "Checkpoint":
        """Capture a :class:`~repro.core.simulation.Simulation`.

        Besides the particle arrays (which include the accelerations and
        energy rates), the scalar driver state needed for *bit-identical*
        resumption is stored: the viscous signal diagnostic feeding the
        next dt and the stepper's growth-limiter memory.  Production SPH
        restart files carry exactly this so a restarted run replays the
        original trajectory.  The Verlet cache's list is not state: cached
        and rebuilt lists give the same bits, so a restore rebuilds it.
        The run's initial conserved state rides along, so a resumed run
        reports its drift from step 0, not from the restored step.
        """
        meta: Dict[str, Any] = {
            "potential_energy": sim.potential_energy,
            "max_mu": sim._max_mu,
        }
        dt_prev = getattr(sim.stepper, "_dt_prev", None)
        if dt_prev is not None:
            meta["dt_prev"] = dt_prev
        if sim.initial_conservation is not None:
            meta["initial_conservation"] = {
                k: np.asarray(v).tolist()
                for k, v in vars(sim.initial_conservation).items()
            }
        return cls.capture(sim.particles, sim.time, sim.step_index, meta=meta)

    def restore_into(self, sim) -> None:
        """Restore a driver in place (state arrays, clock, counters).

        The checkpointed accelerations/rates are trusted — no recomputation
        happens until the next step's own rate evaluation — so a restarted
        run is bit-identical to the uninterrupted one.  The neighbour cache
        holds lists for the pre-restore positions: it is dropped, and the
        next evaluation rebuilds it.  Files written before the initial
        conserved state was stored leave the driver's own in place.
        """
        restored = self.particles.copy()
        sim.particles = restored
        sim.time = self.time
        sim.step_index = self.step_index
        sim.potential_energy = float(self.meta.get("potential_energy", 0.0))
        sim._max_mu = float(self.meta.get("max_mu", 0.0))
        if "dt_prev" in self.meta and hasattr(sim.stepper, "_dt_prev"):
            sim.stepper._dt_prev = float(self.meta["dt_prev"])
        initial = self.meta.get("initial_conservation")
        if initial is not None:
            sim.initial_conservation = ConservationState(
                **{k: np.asarray(v) if isinstance(v, list) else v
                   for k, v in initial.items()}
            )
        sim._rates_current = True
        sim._ncache.invalidate()


def write_checkpoint(path: str | Path, cp: Checkpoint, *, io_chaos=None) -> int:
    """Serialize a checkpoint with per-array CRCs; returns bytes written.

    ``io_chaos`` is a test hook (:class:`~repro.resilience.chaos
    .CheckpointIOChaos`) injecting transient ``OSError`` at the write
    boundary; production callers leave it ``None``.
    """
    path = Path(path)
    arrays = dict(cp.particles.state_arrays())
    header = {
        "magic": _MAGIC,
        "version": _VERSION,
        "time": cp.time,
        "step_index": cp.step_index,
        "meta": cp.meta,
        "arrays": {},
        "extras": {},
    }
    buf = io.BytesIO()
    for section, table in (("arrays", arrays), ("extras", cp.extras)):
        for name, arr in table.items():
            data = np.ascontiguousarray(arr)
            raw = data.tobytes()
            header[section][name] = {
                "dtype": str(data.dtype),
                "shape": list(data.shape),
                "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
                "offset": buf.tell(),
                "nbytes": len(raw),
            }
            buf.write(raw)
    payload = buf.getvalue()
    head = json.dumps(header).encode()
    _atomic_write(
        path, [len(head).to_bytes(8, "little"), head, payload], io_chaos=io_chaos
    )
    return 8 + len(head) + len(payload)


def _atomic_write(path: Path, parts: List[bytes], *, io_chaos=None) -> None:
    """Crash-safe file replacement: ``*.tmp`` + fsync + ``os.replace``.

    A crash mid-write leaves only the tmp file; the destination is either
    absent, the previous complete version, or the new complete version.
    A failed write cleans its tmp file up, so the previous rolling
    checkpoint stays the one and only artifact until the replacement is
    fully fsynced and renamed into place.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        if io_chaos is not None:
            io_chaos.check("write")
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def read_checkpoint(path: str | Path, *, io_chaos=None) -> Checkpoint:
    """Read and verify a checkpoint; raises :class:`CheckpointError`."""
    path = Path(path)
    if io_chaos is not None:
        io_chaos.check("read")
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    file_size = path.stat().st_size
    with open(path, "rb") as f:
        try:
            head_len = int.from_bytes(f.read(8), "little")
            if not 0 < head_len <= file_size:
                raise CheckpointError(
                    f"implausible header length {head_len} in {path}"
                )
            header = json.loads(f.read(head_len).decode())
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        if header.get("magic") != _MAGIC:
            raise CheckpointError(f"not a checkpoint file: {path}")
        if header.get("version") != _VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('version')}"
            )
        payload = f.read()
    def _decode(section: Dict[str, dict]) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, spec in section.items():
            raw = payload[spec["offset"] : spec["offset"] + spec["nbytes"]]
            if len(raw) != spec["nbytes"]:
                raise CheckpointError(f"truncated checkpoint: array {name!r}")
            if (zlib.crc32(raw) & 0xFFFFFFFF) != spec["crc32"]:
                raise CheckpointError(f"CRC mismatch in array {name!r}")
            out[name] = np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
                spec["shape"]
            ).copy()
        return out

    particles = ParticleSystem.from_dict(_decode(header["arrays"]))
    return Checkpoint(
        particles=particles,
        time=float(header["time"]),
        step_index=int(header["step_index"]),
        meta=dict(header["meta"]),
        extras=_decode(header.get("extras", {})),
    )


# ======================================================================
# Rolling-checkpoint management for the driver loop
# ======================================================================
_CKPT_RE = re.compile(r"^ckpt_(\d{8})\.ckpt$")
_LATEST = "latest"


def _checkpoint_name(step_index: int) -> str:
    return f"ckpt_{step_index:08d}.ckpt"


def find_latest_checkpoint(directory: str | Path) -> Optional[Path]:
    """Newest *valid* checkpoint in ``directory``, or ``None``.

    The ``latest`` pointer file is tried first; if it is missing, stale,
    or names a torn file, every ``ckpt_*.ckpt`` is probed newest-first
    (full CRC read), so a resume survives a crash at any point of the
    write/prune sequence.
    """
    found = _newest_valid_checkpoint(directory, read_checkpoint)
    return found[0] if found is not None else None


def _newest_valid_checkpoint(
    directory: str | Path, read: Callable[[Path], Checkpoint]
) -> Optional[Tuple[Path, Checkpoint]]:
    """The search behind :func:`find_latest_checkpoint`, keeping what it read.

    ``read`` decodes one candidate.  A :class:`CheckpointError` skips to
    the next older file; a :class:`CheckpointIOError` (the I/O retry
    budget is spent) propagates, since an older file would not cure it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: List[Path] = []
    pointer = directory / _LATEST
    if pointer.is_file():
        try:
            named = directory / pointer.read_text().strip()
        except OSError:  # pragma: no cover - unreadable pointer
            named = None
        if named is not None and named.is_file():
            candidates.append(named)
    rolling = [p for p in directory.iterdir() if _CKPT_RE.match(p.name)]
    rolling.sort(key=lambda p: p.name, reverse=True)
    candidates.extend(p for p in rolling if p not in candidates)
    for path in candidates:
        try:
            return path, read(path)
        except CheckpointIOError:
            raise
        except CheckpointError:
            continue
    return None


def restore_checkpoint(sim, path=None) -> bool:
    """Restore a :class:`~repro.core.simulation.Simulation` from the
    checkpoint at ``path`` — by default the newest valid one in its
    ``ResilienceConfig.checkpoint_dir`` (``False`` when there is none).

    Each file is read once: the search's read is the restore's.  The
    read retries transient ``OSError`` :data:`IO_RETRIES` times (through
    the checkpoint manager's ``io_chaos`` hook when one is set); what
    retrying cannot cure raises :class:`CheckpointError`.
    """
    res = sim.run_config.resilience
    manager = sim.checkpoint_manager
    io_chaos = manager.io_chaos if manager is not None else None

    def read(candidate: Path) -> Checkpoint:
        return retry_io(
            lambda: read_checkpoint(candidate, io_chaos=io_chaos),
            attempts=IO_RETRIES,
            backoff=IO_BACKOFF,
            what=f"checkpoint restore from {candidate}",
        )

    if path is not None:
        cp = read(path)
    elif res is None:
        raise ValueError("a restore without a path needs a ResilienceConfig")
    else:
        found = _newest_valid_checkpoint(res.checkpoint_dir, read)
        if found is None:
            return False
        cp = found[1]
    cp.restore_into(sim)
    return True


@dataclass(frozen=True)
class ResilienceConfig:
    """Checkpoint policy for :class:`~repro.core.simulation.Simulation`.

    Parameters
    ----------
    checkpoint_dir:
        Directory for rolling checkpoints (created on first write).
    checkpoint_every:
        Steps between checkpoints (>= 1).
    """

    checkpoint_dir: str = "checkpoints"
    checkpoint_every: int = 10

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class CheckpointManager:
    """Writes rolling, atomic checkpoints from the step loop.

    ``after_step(sim)`` is called once per completed step; every
    ``checkpoint_every``-th call captures, writes atomically, repoints
    ``latest`` and prunes.
    """

    config: ResilienceConfig
    steps_since: int = 0
    checkpoints_written: int = 0
    last_write_seconds: float = 0.0
    last_path: Optional[Path] = None
    #: Transient write failures absorbed by the retry loop.
    io_retries_used: int = 0
    #: Test hook: :class:`~repro.resilience.chaos.CheckpointIOChaos`.
    io_chaos: Optional[object] = None

    @property
    def directory(self) -> Path:
        return Path(self.config.checkpoint_dir)

    def after_step(self, sim) -> Optional[Path]:
        """Account one finished step; maybe checkpoint.  Returns the path."""
        self.steps_since += 1
        if self.steps_since < self.config.checkpoint_every:
            return None
        return self.checkpoint(sim)

    def checkpoint(self, sim) -> Path:
        """Unconditional checkpoint of the driver's current state."""
        from ..observability.tracer import State

        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / _checkpoint_name(sim.step_index)
        cp = Checkpoint.of_simulation(sim)
        tries = {"n": 0}

        def _write() -> None:
            tries["n"] += 1
            write_checkpoint(path, cp, io_chaos=self.io_chaos)
            _atomic_write(
                self.directory / _LATEST, [path.name.encode()],
                io_chaos=self.io_chaos,
            )

        start = _time.perf_counter()
        try:
            with sim.tracer.phase("ckpt", State.RECOVERY):
                retry_io(
                    _write,
                    attempts=IO_RETRIES,
                    backoff=IO_BACKOFF,
                    what=f"checkpoint write to {path}",
                )
        finally:
            self.io_retries_used += max(0, tries["n"] - 1)
        self.last_write_seconds = _time.perf_counter() - start
        self.last_path = path
        self.checkpoints_written += 1
        self.steps_since = 0
        self._prune()
        return path

    def stats(self) -> Dict[str, float]:
        """Counters for ``Simulation.report()`` (one flat dict)."""
        return {
            "writes": self.checkpoints_written,
            "last_write_seconds": self.last_write_seconds,
            "interval_steps": self.config.checkpoint_every,
            "io_retries": self.io_retries_used,
        }

    def _prune(self) -> None:
        rolling = sorted(
            (p for p in self.directory.iterdir() if _CKPT_RE.match(p.name)),
            key=lambda p: p.name,
        )
        for stale in rolling[:-KEEP]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
