"""Span recording by interposition, from the benchmark's own files.

The traced run of a workload wraps the public functions of each layer
(repo module) with a timing wrapper.  Nothing under ``src/`` is edited:
the wrappers are installed into the already-imported modules and removed
again by :meth:`Recorder.uninstall`, so an untraced run executes the
original function objects.

A span is one row ``[layer, start, end, parent_row]``.  A layer's *self*
time is the summed duration of its spans minus the part their child
spans cover, so the self times of all layers add up to the duration of
the root span.  All stamps are ``time.time()`` — the one clock the
parent and child processes of the benchmark share.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Recorder",
    "PHYSICS_TARGETS",
    "SERVICE_TARGETS",
    "CHECKPOINT_BYTES",
    "WORKER_DUMP",
    "merge_layers",
]

#: ``(layer, "module:attr.path")`` — the public entry points of every
#: layer a simulation passes through.  Several entries may share a layer
#: name (``kick``/``drift``/``select`` are all ``timestepping``).
PHYSICS_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("core.simulation.wire", "repro.service.runner:build_simulation"),
    ("scenarios.build", "repro.scenarios.registry:Scenario.build"),
    ("backend.select", "repro.backend:select_backend"),
    ("core.simulation.driver", "repro.core.simulation:Simulation.run"),
    ("core.simulation.driver", "repro.core.simulation:Simulation.step"),
    ("core.simulation.driver", "repro.core.simulation:Simulation.compute_rates"),
    ("core.simulation.driver", "repro.core.simulation:Simulation.resume"),
    ("core.simulation.driver", "repro.core.simulation:Simulation.close"),
    ("tree.octree.build", "repro.tree.octree:Octree.build"),
    ("tree.octree.walk", "repro.tree.octree:Octree.walk_neighbors"),
    ("tree.cellgrid.search", "repro.tree.cellgrid:cell_grid_search"),
    ("sph.smoothing.adapt", "repro.sph.smoothing:adapt_smoothing_lengths"),
    ("sph.smoothing.adapt_cached", "repro.sph.smoothing:adapt_from_cached_list"),
    ("sph.density", "repro.sph.density:compute_density"),
    ("gradients.iad", "repro.gradients.iad:compute_iad_matrices"),
    ("sph.forces", "repro.sph.forces:compute_forces"),
    ("sph.eos", "repro.sph.eos:EquationOfState.apply"),
    ("gravity.barnes_hut", "repro.gravity.barnes_hut:barnes_hut_gravity"),
    ("timestepping", "repro.timestepping.integrator:kick"),
    ("timestepping", "repro.timestepping.integrator:drift"),
    ("timestepping", "repro.timestepping.integrator:apply_energy_floor"),
    ("timestepping", "repro.timestepping.steppers:GlobalTimestep.select"),
    ("timestepping", "repro.timestepping.steppers:AdaptiveTimestep.select"),
    ("timestepping", "repro.timestepping.steppers:IndividualTimesteps.select"),
    ("core.conservation", "repro.core.conservation:measure_conservation"),
    ("resilience.checkpoint.write",
     "repro.resilience.checkpoint:CheckpointManager.after_step"),
    ("observability.ledger.append", "repro.observability.ledger:RunLedger.__init__"),
    ("observability.ledger.append", "repro.observability.ledger:RunLedger.append"),
    ("service.runner.outcome", "repro.service.runner:outcome_from_simulation"),
    ("service.runner.execute", "repro.service.runner:execute_spec"),
)

#: The service's own layers: the synchronous facade on the client
#: threads, the manager and the store on the manager's event-loop thread.
SERVICE_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("service.facade", "repro.service.manager:LocalService.submit"),
    ("service.facade", "repro.service.manager:SyncJobHandle.result"),
    ("service.manager.submit", "repro.service.manager:ServiceManager.submit"),
    ("service.store.get", "repro.service.store:ResultStore.get"),
    ("service.store.put", "repro.service.store:ResultStore.put"),
)

#: Tapped (not timed): returns the bytes one checkpoint write put on disk.
CHECKPOINT_BYTES = "repro.resilience.checkpoint:write_checkpoint"

#: File a forked service worker leaves in its job directory.
WORKER_DUMP = "e2e_layers.json"


class Recorder:
    """In-memory span log plus the interposition that feeds it."""

    def __init__(self) -> None:
        self.reset()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._taps: Dict[str, Callable[[Any], None]] = {}
        #: Targets whose module was not imported yet at :meth:`install`.
        self.deferred: List[Tuple[Optional[str], str]] = []

    def reset(self) -> None:
        """Drop every span and counter (a forked worker starts clean)."""
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def _open(self, layer: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        row = [layer, time.time(), None, stack[-1] if stack else None]
        stack.append(row)
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        row[2] = time.time()
        self._local.stack.pop()

    @contextmanager
    def span(self, layer: str):
        row = self._open(layer)
        try:
            yield row
        finally:
            self._close(row)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        layer: Optional[str],
        fn: Callable,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """Timing wrapper around ``fn``; ``layer=None`` only taps the result."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                row = self._open(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(row)

        elif layer is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(result)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                row = self._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(row)
                if on_return is not None:
                    on_return(result)
                return result

        traced.__wrapped_by_e2e__ = True
        return traced

    # -- interposition ---------------------------------------------------
    def install(
        self,
        targets: Iterable[Tuple[Optional[str], str]],
        taps: Optional[Dict[str, Callable[[Any], None]]] = None,
    ) -> None:
        """Replace each target with its wrapper, wherever it is bound.

        A module-level function is rebound in every ``repro`` module that
        imported it by name, so callers holding ``from x import f`` see
        the wrapper too.  ``taps`` maps a target path to an ``on_return``
        callback that receives the call's result.

        Only modules the program has already imported are touched: an
        import made here would spare the program (and every service
        worker forked from it) a lazy import it otherwise pays, and the
        traced run would measure a faster program than the untraced one.
        The rest is kept in :attr:`deferred` for :meth:`install_deferred`.
        """
        self._taps.update(taps or {})
        for layer, path in targets:
            if path.partition(":")[0] not in sys.modules:
                self.deferred.append((layer, path))
                continue
            owner, attr = _resolve(path)
            raw = vars(owner)[attr]
            tap = self._taps.get(path)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(layer, raw.__func__, tap))
            else:
                wrapped = self.wrap(layer, raw, tap)
            self._set(owner, attr, raw, wrapped)
            if inspect.ismodule(owner):
                for name, mod in list(sys.modules.items()):
                    if mod is owner or not name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, wrapped)

    def install_deferred(self) -> None:
        """Import the modules skipped by :meth:`install` and wrap them too."""
        deferred, self.deferred = self.deferred, []
        for _, path in deferred:
            importlib.import_module(path.partition(":")[0])
        self.install(deferred)

    def _set(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original object back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def hook_worker_entry(self) -> None:
        """Make forked service workers dump their layers on exit.

        A worker process inherits the installed wrappers through fork, but
        its spans die with it.  The manager's ``process_worker_main``
        reference is wrapped so the worker starts from an empty log, wraps
        the modules only a worker imports (under ``service.worker.import``
        — the imports every worker pays anyway, moved to its start) and
        writes its layer table into its job directory.
        """
        import repro.service.manager as manager

        original = manager.process_worker_main

        @functools.wraps(original)
        def worker_entry(spec_dict, spec_hash, job_dir, *rest):
            self.reset()
            try:
                with self.span("service.worker.main"):
                    with self.span("service.worker.import"):
                        self.install_deferred()
                    original(spec_dict, spec_hash, job_dir, *rest)
            finally:
                dump = {"layers": self.layers(), "counters": self.counters}
                with open(os.path.join(job_dir, WORKER_DUMP), "w") as fh:
                    json.dump(dump, fh)

        self._set(manager, "process_worker_main", original, worker_entry)

    # -- aggregation -----------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` over the closed spans."""
        out: Dict[str, Dict[str, float]] = {}
        for layer, start, end, parent in self.spans:
            if end is None:
                continue
            dur = end - start
            agg = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += dur
            agg["calls"] += 1
            if parent is not None:
                out.setdefault(parent[0], {"self_s": 0.0, "calls": 0})[
                    "self_s"
                ] -= dur
        return out

    def nesting_violations(self) -> int:
        """Closed spans that are not contained in their parent span."""
        bad = 0
        for _, start, end, parent in self.spans:
            if end is None or parent is None:
                continue
            if start < parent[1] or (parent[2] is not None and end > parent[2]):
                bad += 1
        return bad


def merge_layers(
    into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]
) -> None:
    for layer, agg in other.items():
        mine = into.setdefault(layer, {"self_s": 0.0, "calls": 0})
        mine["self_s"] += agg["self_s"]
        mine["calls"] += agg["calls"]


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` → ``(owner object, "attr")``."""
    mod_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(mod_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr
