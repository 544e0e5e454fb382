"""Simulation-as-a-service: threaded job farm with a content-addressed cache.

ROADMAP item 4, the production-traffic axis.  The runtime below this
package is parallel, self-healing and self-measuring — but a
run is still one blocking :meth:`~repro.core.simulation.Simulation.run`
call.  This package turns it into a service:

:mod:`repro.service.spec`
    :class:`JobSpec` — one simulation request (scenario + typed config
    overrides), canonicalized into a stable content hash over the IC
    parameters, the resolved run-config knobs and the code version.
:mod:`repro.service.store`
    :class:`ResultStore` — durable sqlite map ``spec_hash -> outcome``
    (run report JSON + final-field digests), the dedup cache.
:mod:`repro.service.queue`
    :class:`FairShareQueue` — bounded fair-share admission queue with
    reject-with-retry-after backpressure.
:mod:`repro.service.events`
    :class:`JobEventLog` — per-job ordered event history with replay +
    live fan-out to any number of subscribers.
:mod:`repro.service.runner`
    :func:`execute_spec` — the one synchronous spec → simulation → outcome
    path shared by the service workers, ``repro.api.run`` and the CLI.
:mod:`repro.service.manager`
    :class:`ServiceManager` — the job manager tying it together: one
    lock, admission on the caller's thread, ``max_workers`` slot threads
    that run the jobs — plus the :class:`LocalService` facade behind
    :func:`repro.api.submit`.
:mod:`repro.service.server`
    The ``repro serve`` / ``repro submit`` UNIX-socket JSON-lines
    transport, one handler thread per connection.
"""

from .._lazy import lazy_exports

__all__ = [
    "JobSpec",
    "SpecError",
    "JobOutcome",
    "execute_spec",
    "field_digests",
    "ResultStore",
    "CachedResult",
    "FairShareQueue",
    "QueueFullError",
    "JobEvent",
    "JobEventLog",
    "JobState",
    "JobHandle",
    "ServiceConfig",
    "ServiceManager",
    "LocalService",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("JobEvent", "JobEventLog"),
    ".manager": (
        "JobHandle", "JobState", "LocalService", "ServiceConfig",
        "ServiceManager",
    ),
    ".queue": ("FairShareQueue", "QueueFullError"),
    ".runner": ("JobOutcome", "execute_spec", "field_digests"),
    ".spec": ("JobSpec", "SpecError"),
    ".store": ("CachedResult", "ResultStore"),
})
