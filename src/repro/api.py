"""The public API: specs in, handles and outcomes out.

This module is the one import an application needs::

    from repro import api

    handle = api.submit(api.JobSpec(scenario="sod", n_steps=50))
    outcome = handle.result()          # JobOutcome: report + digests
    for event in handle.events():      # replay + live progress stream
        print(event.type, event.payload)

``submit`` goes through the shared in-process service — a threaded job
manager with a content-addressed result cache, so submitting the same
spec twice runs one simulation and serves the second from the store
(on the caller's thread, without waking a worker slot).
``run`` is the synchronous wrapper over the *same* spec → simulation →
outcome path (no queue, no cache) — by construction it produces the
same deterministic report as a service execution of the same spec.

The classic driver loop — ``Simulation``/``RunConfig`` and friends —
remains fully supported for library use and is re-exported here.

The default service runs jobs inline (thread slots, no isolation
overhead) with an in-memory store; :func:`configure_service` swaps in
process isolation and/or a durable store path before first use.
"""

from __future__ import annotations

import atexit
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ._lazy import lazy_exports
from .core.config import RunConfig
from .core.simulation import RunCancelled, Simulation
from .service.runner import JobOutcome, execute_spec
from .service.spec import JobSpec, SpecError

if TYPE_CHECKING:
    from .service.manager import LocalService, ServiceConfig, SyncJobHandle

__all__ = [
    # Spec & outcomes
    "JobSpec",
    "SpecError",
    "JobOutcome",
    "JobState",
    # Service surface
    "submit",
    "run",
    "service",
    "configure_service",
    "shutdown_service",
    "jobs",
    "stats",
    "QueueFullError",
    "JobError",
    "JobFailedError",
    "JobCancelledError",
    "SyncJobHandle",
    "ServiceConfig",
    "LocalService",
    # Classic driver loop
    "Simulation",
    "RunConfig",
    "RunCancelled",
]

#: The service side loads on first use: a one-shot :func:`run` never
#: imports the job manager, its queue or its store.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".service.manager": (
        "JobCancelledError", "JobError", "JobFailedError", "JobState",
        "LocalService", "ServiceConfig", "SyncJobHandle",
    ),
    ".service.queue": ("QueueFullError",),
})

_lock = threading.Lock()
_service: Optional[LocalService] = None
_service_config: Optional[ServiceConfig] = None


def configure_service(config: ServiceConfig) -> None:
    """Set the config the module-level service will be built with.

    Must be called before the first :func:`submit`; afterwards it
    raises (close the running service first with
    :func:`shutdown_service`).
    """
    global _service_config
    with _lock:
        if _service is not None:
            raise RuntimeError(
                "service already started; call shutdown_service() first"
            )
        _service_config = config


def service() -> LocalService:
    """The lazily-started module-level service."""
    from .service.manager import LocalService, ServiceConfig

    global _service
    with _lock:
        if _service is None:
            config = _service_config or ServiceConfig(isolation="inline")
            _service = LocalService(config)
        return _service


def shutdown_service() -> None:
    """Stop the module-level service (idempotent)."""
    global _service
    with _lock:
        if _service is not None:
            _service.close()
            _service = None


atexit.register(shutdown_service)


def submit(
    spec: JobSpec, *, tenant: str = "api", **spec_kwargs: Any
) -> SyncJobHandle:
    """Submit a job; returns a handle with ``result()``/``events()``.

    Accepts either a ready :class:`JobSpec` or a scenario name plus
    keyword fields: ``submit(JobSpec("sod"))`` and
    ``submit("sod", n_steps=50)`` are equivalent.
    """
    if isinstance(spec, str):
        spec = JobSpec(scenario=spec, **spec_kwargs)
    elif spec_kwargs:
        spec = spec.with_(**spec_kwargs)
    return service().submit(spec, tenant=tenant)


def run(spec: JobSpec, **spec_kwargs: Any) -> JobOutcome:
    """Run a spec synchronously — no queue, no cache, same outcome.

    This is the one-shot path (`repro run` uses it too): it calls the
    same :func:`~repro.service.runner.execute_spec` the service's
    worker slots call, so the resulting report and digests are
    identical to what :func:`submit` would produce for the same spec.
    """
    if isinstance(spec, str):
        spec = JobSpec(scenario=spec, **spec_kwargs)
    elif spec_kwargs:
        spec = spec.with_(**spec_kwargs)
    return execute_spec(spec)


def jobs() -> List[Dict[str, Any]]:
    """Snapshot of the module-level service's job table."""
    return service().jobs()


def stats() -> Dict[str, Any]:
    """The module-level service's counters (cache hits, rejects, ...)."""
    return service().stats()
