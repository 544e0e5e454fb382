"""Process-isolation worker entry: one OS process, one job attempt.

The manager spawns :func:`process_worker_main` per job attempt.  The
child runs the shared :func:`~repro.service.runner.execute_spec` path,
streaming ``("step", {...})`` tuples over the pipe and finishing with
``("done", outcome_dict)`` or ``("error", message)``.  If the process
dies instead (SIGKILL, OOM, a segfaulting native kernel), the parent
sees pipe EOF + a dead process and respawns with the same job
directory — checkpoint autoresume then continues the run from the last
completed step rather than restarting it.

Top-level by design: the function must be importable under the
``spawn`` start method, not only ``fork``.

Under ``fork`` a child starts as a copy of the manager's process, so
whatever the manager has not loaded every attempt loads again.
:func:`warm` makes that copy complete.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["process_worker_main", "warm"]


def warm() -> None:
    """Load in the forking process what every job attempt would load.

    ``ServiceManager.start()`` calls this under process isolation: the
    modules :func:`~repro.service.runner.execute_spec` reaches through
    function-local imports, and the memoised per-process facts each job
    stamps into its spec hash and ledger row, and the quadrature rule
    behind every integrated kernel normalization.  A forked child then
    pays for its physics, checkpoints and ledger row only.  Still one
    process per attempt (nothing is pooled or kept alive) and nothing is
    compiled; imports and ``functools.cache`` make a second call free.
    """
    from .. import resilience  # noqa: F401
    from ..kernels.base import gauss_legendre_rule
    from ..observability import ledger

    ledger.host_fingerprint()
    ledger.code_version()
    gauss_legendre_rule()


def process_worker_main(
    spec_dict: dict,
    spec_hash: Optional[str],
    job_dir: str,
    run_id: str,
    checkpoint_every: Optional[int],
    ledger_path: Optional[str],
    conn,
) -> None:
    """Run one job attempt; report through ``conn`` (then close it)."""
    from .runner import execute_spec
    from .spec import JobSpec

    try:
        spec = JobSpec.from_dict(spec_dict)

        def progress(payload: dict) -> None:
            try:
                conn.send(("step", payload))
            except (BrokenPipeError, OSError):
                # The manager went away; keep computing — the checkpoint
                # trail is still worth finishing for the next submit.
                pass

        outcome = execute_spec(
            spec,
            job_dir=job_dir,
            checkpoint_every=checkpoint_every,
            ledger_path=ledger_path,
            run_id=run_id,
            spec_hash=spec_hash,
            progress=progress,
        )
        conn.send(("done", outcome.as_dict()))
    except BaseException as exc:  # noqa: BLE001 - the process boundary
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
