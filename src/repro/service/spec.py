"""Job specification: one simulation request, canonicalized and hashed.

A :class:`JobSpec` is the service's unit of work *and* the unit of
dedup: two requests whose canonical payloads hash the same are the same
job, and the second is served from the result store without running.

The canonical payload covers exactly the inputs that determine the
result bits:

* the scenario name and its IC-builder overrides,
* the step count and the physics configuration (preset, and the
  neighbour count it resolves to — the scenario's when none is named),
* the backend (the compiled backend is roundoff-level different from
  numpy, so each is its own cache entry),
* numerical-chaos and guard settings (they can change state),
* the running code version (from the ledger's ``code_version`` stamp),
  so a new commit silently invalidates every cached result.

Deliberately *excluded* — execution-neutral by the parity test suites
and by construction: ``workers`` (bitwise-serial parity),
service-managed paths (checkpoint dirs, ledger/store locations),
observability settings, and the fault-injection knob ``kill_at_step``
(recovery is bit-identical, so a killed-and-recovered job *should* share
its cache line with an unfaulted one).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

from ..core.config import ExecConfig, RunConfig
from ..scenarios import UnknownScenarioError, get_scenario

__all__ = ["SpecError", "JobSpec", "canonical_spec_payload"]



class SpecError(ValueError):
    """An invalid job specification (unknown scenario, bad knob, ...).

    The CLI maps this to exit code 2, the socket server to an
    ``{"error": "bad-spec"}`` reply; neither ever enqueues the job.
    """


@dataclass(frozen=True)
class JobSpec:
    """One simulation request: scenario + typed config overrides.

    ``overrides`` are IC-builder keyword arguments (the scenario's
    config-dataclass fields, e.g. ``n_target``, ``side``, ``layers``);
    everything else mirrors a ``repro run`` flag.  Instances are
    immutable; use :meth:`with_` for variations.
    """

    scenario: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    n_steps: Optional[int] = None  # None -> the scenario's default_steps
    test: bool = False  # size from the scenario's test_params
    preset: str = "sph-exa"
    n_neighbors: Optional[int] = None
    # Result-affecting execution knobs (hashed):
    backend: str = "numpy"
    guard: bool = False
    chaos: Optional[str] = None  # parse_numerical_faults() spelling
    # Execution-neutral knobs (not hashed):
    workers: int = 0
    #: Service-chaos: SIGKILL the worker process when this step completes
    #: (fire-once across respawns via a job-dir marker).  Test/validation
    #: knob; excluded from the hash because recovery is bit-identical.
    kill_at_step: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.scenario:
            raise SpecError("spec needs a scenario name")
        # A spec arrives as JSON from outside the process: type the
        # fields before anything compares or hashes them.
        for name in ("n_steps", "n_neighbors", "kill_at_step"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        for name in ("test", "guard"):
            if not isinstance(getattr(self, name), bool):
                raise SpecError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        if not isinstance(self.preset, str):
            raise SpecError(f"preset must be a string, got {self.preset!r}")
        if self.chaos is not None and not isinstance(self.chaos, str):
            raise SpecError(f"chaos must be a string, got {self.chaos!r}")
        if not isinstance(self.overrides, Mapping):
            raise SpecError(f"overrides must be a mapping, got {self.overrides!r}")
        self._check_overrides()
        if self.n_steps is not None and self.n_steps < 1:
            raise SpecError(f"n_steps must be >= 1, got {self.n_steps}")
        try:
            self.exec_config()
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if not isinstance(self.overrides, dict):
            object.__setattr__(self, "overrides", dict(self.overrides))

    def _check_overrides(self) -> None:
        """Every override names a field of the scenario's IC config and has
        that field's type — checked, never converted, so a valid spec
        hashes as it always did.  An unknown scenario is left to
        :meth:`resolve`."""
        try:
            scenario = get_scenario(self.scenario)
        except UnknownScenarioError:
            return
        types = _field_types(scenario.ic()[1])
        unknown = set(self.overrides) - set(types)
        if unknown:
            raise SpecError(
                f"unknown {scenario.name} override(s) "
                f"{sorted(unknown)}; known: {sorted(types)}"
            )
        for name, value in self.overrides.items():
            if not _has_type(value, types[name]):
                raise SpecError(
                    f"{scenario.name} override {name} must be "
                    f"{types[name]}, got {value!r}"
                )

    # ------------------------------------------------------------------
    # Resolution against the scenario registry
    # ------------------------------------------------------------------
    def resolve(self):
        """Validate against the registry; returns the Scenario.

        Raises :class:`SpecError` for an unknown scenario or a bad chaos
        spelling; the overrides' names and types were checked when the
        spec was built.  Either way a malformed request is caught before
        anything is enqueued.
        """
        try:
            scenario = get_scenario(self.scenario)
        except UnknownScenarioError as exc:
            raise SpecError(exc.args[0]) from None
        if self.chaos is not None:
            from ..resilience.chaos import parse_numerical_faults

            try:
                parse_numerical_faults(self.chaos)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        return scenario

    def exec_config(self):
        """The :class:`~repro.core.config.ExecConfig` this spec runs
        with — its validation rules are the spec's rules for the two
        execution knobs."""
        return ExecConfig(workers=self.workers, backend=self.backend)

    def resolved_steps(self, scenario=None) -> int:
        if self.n_steps is not None:
            return int(self.n_steps)
        if scenario is None:
            scenario = self.resolve()
        return int(scenario.default_steps)

    def resolved_neighbors(self, scenario=None) -> int:
        """The neighbour target the run uses: this spec's, else the
        scenario's."""
        if self.n_neighbors is not None:
            return int(self.n_neighbors)
        if scenario is None:
            scenario = self.resolve()
        return int(scenario.sim_config.n_neighbors)

    def sim_config(self, scenario=None):
        """The physics config this spec resolves to (the CLI's merge rule:
        preset column + the scenario's pinned switches + overrides)."""
        from ..core.presets import get_preset

        if scenario is None:
            scenario = self.resolve()
        try:
            preset = get_preset(self.preset)
        except KeyError:
            raise SpecError(f"unknown preset {self.preset!r}") from None
        needs = scenario.sim_config
        return preset.with_(
            n_neighbors=self.resolved_neighbors(scenario),
            timestep_params=needs.timestep_params,
            viscosity=needs.viscosity,
        )

    def run_config(
        self,
        scenario=None,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        ledger_path: Optional[str] = None,
    ):
        """The execution environment this spec resolves to.

        ``checkpoint_dir`` / ``ledger_path`` are *runtime* locations the
        caller (CLI flag or service job slot) supplies — they are not
        part of the spec or its hash.
        """
        if scenario is None:
            scenario = self.resolve()
        run = RunConfig(exec=self.exec_config())
        if self.guard:
            from ..resilience.guard import GuardConfig

            run = run.with_(
                guard=GuardConfig(drift_tolerances=scenario.invariants)
            )
        if self.chaos is not None:
            from ..resilience.chaos import parse_numerical_faults

            run = run.with_(numerical_chaos=parse_numerical_faults(self.chaos))
        if checkpoint_dir is not None:
            from ..resilience.checkpoint import ResilienceConfig

            kwargs: Dict[str, Any] = {"checkpoint_dir": checkpoint_dir}
            if checkpoint_every is not None:
                kwargs["checkpoint_every"] = checkpoint_every
            run = run.with_(resilience=ResilienceConfig(**kwargs))
        if ledger_path is not None:
            run = run.with_(
                observability=run.observability.with_(ledger_path=ledger_path)
            )
        return run

    # ------------------------------------------------------------------
    # Canonical payload + content hash
    # ------------------------------------------------------------------
    def canonical(self, *, code_version: Optional[str] = None) -> Dict[str, Any]:
        """The hash-covered payload, resolved and key-sorted.

        ``code_version`` defaults to the running checkout's stamp (the
        same :func:`repro.observability.ledger.code_version` the run
        ledger records), so a rebuilt world never serves stale results.
        """
        scenario = self.resolve()
        if code_version is None:
            from ..observability import ledger as _ledger

            code_version = _ledger.code_version()
        return {
            "scenario": scenario.name,
            "overrides": {k: self.overrides[k] for k in sorted(self.overrides)},
            "n_steps": self.resolved_steps(scenario),
            "test": bool(self.test),
            "preset": self.preset,
            "n_neighbors": self.resolved_neighbors(scenario),
            "backend": self.backend,
            "guard": bool(self.guard),
            "chaos": self.chaos,
            "code_version": code_version,
        }

    def content_hash(self, *, code_version: Optional[str] = None) -> str:
        """Stable sha256 over the canonical payload (the cache key)."""
        payload = canonical_spec_payload(
            self.canonical(code_version=code_version)
        )
        return hashlib.sha256(payload).hexdigest()

    # ------------------------------------------------------------------
    # Plain-data transport (socket protocol, worker processes)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            f.name: (
                dict(getattr(self, f.name))
                if f.name == "overrides"
                else getattr(self, f.name)
            )
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown spec field(s) {sorted(unknown)}")
        return cls(**dict(data))

    def with_(self, **kwargs) -> "JobSpec":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)


@functools.cache
def _field_types(config_type: type) -> Dict[str, str]:
    """Field name -> annotation of an IC config dataclass."""
    return {f.name: f.type for f in fields(config_type)}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_type(value: Any, annotation: str) -> bool:
    """Whether ``value`` (JSON-decoded) fits an IC-config field annotated
    ``annotation``: an ``int`` takes an integer, a ``float`` any number,
    a ``str`` a string, a ``tuple[float, ...]`` a list or tuple of that
    many numbers.  An annotation not spelled here is not checked."""
    if annotation == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation == "float":
        return _is_number(value)
    if annotation == "str":
        return isinstance(value, str)
    if annotation.startswith("tuple[") and annotation.endswith("]"):
        items = annotation[len("tuple["):-1].split(",")
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(items)
            and all(_has_type(v, item.strip()) for v, item in zip(value, items))
        )
    return True


def canonical_spec_payload(payload: Mapping[str, Any]) -> bytes:
    """Deterministic byte serialization of a canonical payload.

    Sorted keys, no whitespace variance, ASCII-only — the encoding is
    part of the cache contract, so two processes (or two hosts at the
    same code version) derive identical hashes for identical requests.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        default=_reject_unstable,
    ).encode("ascii")


def _reject_unstable(obj: Any) -> Any:
    raise SpecError(
        f"spec overrides must be JSON-stable scalars/lists/dicts, "
        f"got {type(obj).__name__}"
    )
