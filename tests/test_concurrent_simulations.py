"""Two simulations in one process share nothing per-pair.

The compiled op table is one object per process; until 4.0.0 it also
held the per-pair scratch (keyed by row range only), so two equal-N
compiled runs on two threads — e.g. two jobs of an ``isolation="inline"``
service — overwrote each other's kernel values while the interpreter
lock was released.  Per-pair state now lives in each simulation's own
pair context; these tests pin that, with no sleeps and no timing
assertions.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import JobSpec
from repro.backend import available_backends, select_backend
from repro.service.manager import LocalService, ServiceConfig
from repro.service.runner import execute_spec

needs_cffi = pytest.mark.skipif(
    not available_backends()["cffi"], reason="no C toolchain on this host"
)
BACKENDS = ["numpy", pytest.param("cffi", marks=needs_cffi)]


def _specs(backend: str):
    """Two specs of equal N whose trajectories differ."""
    return [
        JobSpec(
            scenario="square-patch",
            overrides={"side": 12, "layers": 12, "omega": omega},
            n_steps=8, backend=backend, preset="sph-exa",
        )
        for omega in (5.0, 5.3)
    ]


def _solo_digests(specs):
    return [execute_spec(spec).result_digest for spec in specs]


@pytest.mark.parametrize("backend", BACKENDS)
def test_inline_service_runs_equal_n_jobs_side_by_side(backend):
    specs = _specs(backend)
    solo = _solo_digests(specs)
    assert solo[0] != solo[1]
    service = LocalService(ServiceConfig(isolation="inline", max_workers=2))
    try:
        handles = [service.submit(spec) for spec in specs]
        outcomes = [handle.result(timeout=300) for handle in handles]
    finally:
        service.close()
    assert [o.result_digest for o in outcomes] == solo
    assert not any(o.cached for o in outcomes)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_threads_reproduce_their_solo_digests(backend):
    specs = _specs(backend)
    solo = _solo_digests(specs)
    for _ in range(3):
        barrier = threading.Barrier(len(specs))
        got = [None] * len(specs)

        def run(k):
            barrier.wait(timeout=60)
            try:
                got[k] = execute_spec(specs[k]).result_digest
            except Exception as exc:  # compared below
                got[k] = exc

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert got == solo


def _reachable_arrays(root):
    """Attribute paths from ``root`` that end in an ndarray, through
    instance attributes and builtin containers."""
    found, seen, todo = [], set(), [("ops", root)]
    while todo:
        path, obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(path)
        elif isinstance(obj, dict):
            todo += [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += [(f"{path}[{k}]", v) for k, v in enumerate(obj)]
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            todo += [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    return found


@needs_cffi
def test_the_compiled_op_table_holds_no_array_after_a_run():
    execute_spec(_specs("cffi")[0])
    assert _reachable_arrays(select_backend("cffi").ops) == []
