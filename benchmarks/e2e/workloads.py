"""The five workloads, every execution knob pinned.

Each workload turns a seed into plain-data inputs (``JobSpec`` field
dicts and, for the service, a request sequence).  Seed 0 gives the
paper's parameters; any other seed perturbs only inputs that leave the
amount of work unchanged — the patch's ``omega`` (the weakly
compressible sound speed scales with it, so the step-indexed trajectory
is self-similar), Evrard's ``total_mass`` and ``u0`` together, and the
order and step counts of the service requests.  The particle count never depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["PINNED_KNOBS", "THREAD_ENV", "SERVICE_CONFIG", "WORKLOADS", "Workload"]

#: Execution knobs stated explicitly in every spec, so a later change of
#: a ``JobSpec`` default cannot change what a workload name measures.
PINNED_KNOBS: Dict[str, Any] = {
    "preset": "sph-exa",
    "pair_engine": True,
    "neighbor_cache": True,
    "cache_skin": 0.3,
    "workers": 0,
}

#: One compute thread per process: BLAS/OpenMP pools off.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: ``ServiceConfig`` fields besides the per-run paths.
SERVICE_CONFIG: Dict[str, Any] = {
    "isolation": "process",
    "max_workers": 2,
    "queue_capacity": 64,
    "max_recoveries": 3,
    "checkpoint_every": 1,
}

#: Closed-loop clients of the service workloads.
SERVICE_CLIENTS = 2


def _spec(scenario: str, overrides: Dict[str, Any], n_steps: int, backend: str):
    return dict(
        PINNED_KNOBS,
        scenario=scenario,
        overrides=overrides,
        n_steps=n_steps,
        backend=backend,
    )


def _work_neutral_factor(seed: int) -> float:
    """1.0 for seed 0, else a reproducible factor in [0.9, 1.1]."""
    return 1.0 if seed == 0 else 1.0 + 0.1 * random.Random(seed).uniform(-1, 1)


def _patch(side: int, steps: int, backend: str, smoke_side: int):
    def plan(seed: int, smoke: bool) -> Dict[str, Any]:
        n = smoke_side if smoke else side
        overrides = {
            "side": n,
            "layers": n,
            "omega": 5.0 * _work_neutral_factor(seed),
        }
        return {"spec": _spec("square-patch", overrides, 5 if smoke else steps, backend)}

    return plan


def _evrard(seed: int, smoke: bool) -> Dict[str, Any]:
    # Mass and thermal energy scaled together scale every acceleration
    # alike: time stretches, the step-indexed trajectory does not change.
    factor = _work_neutral_factor(seed)
    overrides = {
        "n_target": 300 if smoke else 800,
        "total_mass": 1.0 * factor,
        "u0": 0.05 * factor,
    }
    return {"spec": _spec("evrard", overrides, 5 if smoke else 12, "cffi")}


def _tiny_specs(count: int, seed: int) -> List[Dict[str, Any]]:
    """``count`` distinct tiny ``sod`` specs; the seed deals the step counts.

    ``p_l`` makes each spec its own cache line without changing its cost;
    the multiset of step counts (2, 3, 4 in equal shares) is the same for
    every seed, so the total work is too.
    """
    steps = [2 + i % 3 for i in range(count)]
    random.Random(seed).shuffle(steps)
    return [
        _spec("sod", {"n_target": 60, "p_l": 1.0 + 1e-4 * (i + 1)}, steps[i], "numpy")
        for i in range(count)
    ]


def _service_miss(seed: int, smoke: bool) -> Dict[str, Any]:
    specs = _tiny_specs(12 if smoke else 120, seed)
    order = list(range(len(specs)))
    random.Random(seed + 1).shuffle(order)
    return {"specs": specs, "prefill": [], "requests": order}


def _service_hit(seed: int, smoke: bool) -> Dict[str, Any]:
    specs = _tiny_specs(6 if smoke else 24, seed)
    total = 498 if smoke else 15000
    requests = [i % len(specs) for i in range(total)]
    random.Random(seed + 1).shuffle(requests)
    # The read path is one GIL-bound process (two client threads and the
    # manager's loop thread).  Left to float over the bench host's two
    # virtual cores it reads 9-12 s with two modes; kept on one core it
    # reads 5.9 s within 3 % — so this workload pins the process.
    return {
        "specs": specs,
        "prefill": list(range(len(specs))),
        "requests": requests,
        "cpu_affinity": [0],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "physics" or "service"
    plan: Callable[[int, bool], Dict[str, Any]]
    #: Conservation drift ceilings of a physics workload; ``None`` takes
    #: the scenario's own ``invariants`` entry.  Those are promises over
    #: the scenario's 3-step golden horizon, and two of them do not hold
    #: over a benchmark-length run (values at the commit that added the
    #: benchmark): the square patch starts with u ~ 0, so its *relative*
    #: energy drift is ill-conditioned (0.47 after 20 steps at N=8000) —
    #: recorded in the stamp as ``energy_drift``, not judged; Barnes-Hut
    #: forces are not pairwise antisymmetric, so Evrard's momentum drift
    #: grows to 1e-8..2e-7 (promise 1e-9) — judged against 1e-5, which
    #: still catches a broken run.
    drift_limits: Dict[str, Optional[float]] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("patch-cold", "physics", _patch(20, 20, "cffi", 8),
                 {"mass": None, "momentum": None}),
        Workload("patch-steady", "physics", _patch(14, 80, "numpy", 8),
                 {"mass": None, "momentum": None}),
        Workload("evrard-gravity", "physics", _evrard,
                 {"mass": None, "momentum": 1e-5, "energy": None}),
        Workload("service-miss", "service", _service_miss),
        Workload("service-hit", "service", _service_hit),
    )
}
