"""Durable run-history ledger: the persistence half of the observability loop.

Every instrumented subsystem in this codebase measures itself —
:class:`~repro.observability.tracer.Tracer` spans, measured POP
metrics, cache/recovery counters — but until now nothing
survived the process.  The ledger closes that gap: an append-only sqlite
store of per-run summaries, keyed by ``(scenario, n_particles, host,
backend, code version)``, that :meth:`repro.core.simulation.Simulation
.close` writes and ``repro ledger`` reads back.

Design constraints, in order:

* **Durability.**  The opener shared with the result store
  (:func:`~repro.observability.sqlite_file.open_versioned`): WAL with a
  busy timeout, so appends from separate processes serialize; a locked
  file is waited on, then raises (``append_run`` warns), never moved; a
  file that is not a database or is malformed (a torn copy's truncated
  header) is quarantined to ``<path>.corrupt`` and a fresh ledger is
  started — history is an optimization, never a single point of failure.
* **Schema versioning.**  ``ledger_meta.schema_version`` stamps every
  file; opening an older file migrates it in place (v0 → v1 adds the
  ``recovery`` and ``extra`` columns).  Opening a *newer* file than this
  code understands raises, never silently misreads.
* **Self-describing rows.**  Structured fields (host fingerprint, knobs,
  per-phase aggregates, POP metrics, step-time percentiles) are stored
  as JSON text columns; the indexed key columns are plain scalars.

The host fingerprint also stamps benchmark JSON artifacts (via
``benchmarks/_scaling_common.py``) so regression gates can refuse
cross-host baseline comparisons the same way they refuse cross-backend
ones.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from .config import new_run_id

if TYPE_CHECKING:  # the store's module loads sqlite3 when a ledger opens
    import sqlite3

__all__ = [
    "SCHEMA_VERSION",
    "host_fingerprint",
    "fingerprint_id",
    "code_version",
    "RunRecord",
    "RunLedger",
    "new_run_id",
    "append_run",
    "record_from_simulation",
]

#: Current on-disk schema.  v0 (the first deployment) lacked the
#: ``recovery`` and ``extra`` columns; see :data:`_MIGRATIONS`.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Host fingerprint + code version (the cross-run comparison keys)
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    """What makes a timing from this host comparable to another one.

    Captures core count, platform triple, interpreter and the backend
    toolchain versions (a toolchain upgrade changes compiled-step timings
    as surely as a CPU swap does).  Deliberately excludes hostname and
    anything wall-clock-dependent so the fingerprint is stable across
    reboots of the same machine/image.  Probed once per process (a
    failed import is retried by Python on every call otherwise); each
    caller gets its own copy.
    """
    return dict(_probe_host())


@functools.cache
def _probe_host() -> Dict[str, object]:
    fp: Dict[str, object] = {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "impl": platform.python_implementation(),
    }
    import numpy

    fp["numpy"] = numpy.__version__
    # "numba" is no longer a backend but stays a recorded fact about the
    # host: the key set feeds fingerprint_id(), which keys every stored
    # ledger row and the e2e cross-host check.
    for mod in ("numba", "cffi"):
        try:
            fp[mod] = __import__(mod).__version__
        except Exception:
            fp[mod] = None
    return fp


def fingerprint_id(fp: Optional[Dict[str, object]] = None) -> str:
    """Short stable digest of a host fingerprint (ledger/bench key)."""
    if fp is None:
        fp = host_fingerprint()
    blob = json.dumps(fp, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@functools.cache
def code_version() -> str:
    """Short git commit of the running checkout, or ``"unknown"``.

    Resolved by reading ``.git/HEAD`` directly (no subprocess): ledger
    appends happen inside ``Simulation.close()`` and must never block on
    or fail from an external tool.  Read once per process: the modules
    it stamps were loaded once, and every ``JobSpec.content_hash()``
    asks.
    """
    root = Path(__file__).resolve()
    for parent in root.parents:
        git = parent / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text().strip()
            if head.startswith("ref:"):
                ref = git / head.split(None, 1)[1]
                if ref.exists():
                    return ref.read_text().strip()[:12]
                packed = git / "packed-refs"
                if packed.exists():
                    want = head.split(None, 1)[1]
                    for line in packed.read_text().splitlines():
                        if line.endswith(want):
                            return line.split()[0][:12]
                return "unknown"
            return head[:12]
        except OSError:
            return "unknown"
    return "unknown"


# ----------------------------------------------------------------------
# Row model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """One finished run's summary, as stored in (and read from) the ledger."""

    run_id: str
    created_s: float
    scenario: str
    n_particles: int
    n_steps: int
    host_id: str
    backend: str
    code_version: str
    host: Dict[str, object] = field(default_factory=dict)
    #: Resolved execution knobs (workers, backend, checkpoint interval;
    #: rows written before 13.0.0 may hold more).
    knobs: Dict[str, object] = field(default_factory=dict)
    #: Per-phase span aggregates: letter -> {total_s, count, mean_s}.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Measured POP efficiency metrics (None-able fields JSON-coerced).
    pop: Optional[Dict[str, float]] = None
    #: Whole-step wall-time percentiles: count/best_s/mean_s/p10/p50/p90.
    step_times: Dict[str, float] = field(default_factory=dict)
    #: Guard + checkpoint recovery counters (rows written before 10.0.0
    #: may also carry ``sdc.*`` keys; they load and print as they are).
    recovery: Dict[str, float] = field(default_factory=dict)
    #: Anything else; older rows may carry sections (e.g. ``tuning``)
    #: this release no longer writes, and read back verbatim.
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def step_p50(self) -> Optional[float]:
        """Median step seconds, the ledger's primary cost signal."""
        v = self.step_times.get("p50_s")
        return float(v) if v is not None else None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
_COLUMNS_V0 = (
    "run_id", "created_s", "scenario", "n_particles", "n_steps",
    "host_id", "backend", "code_version", "host", "knobs", "phases",
    "pop", "step_times",
)
_COLUMNS_V1 = _COLUMNS_V0 + ("recovery", "extra")
_JSON_COLUMNS = frozenset(
    {"host", "knobs", "phases", "pop", "step_times", "recovery", "extra"}
)
_CREATE_SQL = (
    "CREATE TABLE IF NOT EXISTS runs ("
    "  run_id TEXT PRIMARY KEY, created_s REAL NOT NULL,"
    "  scenario TEXT NOT NULL, n_particles INTEGER NOT NULL,"
    "  n_steps INTEGER NOT NULL, host_id TEXT NOT NULL,"
    "  backend TEXT NOT NULL, code_version TEXT NOT NULL,"
    "  host TEXT NOT NULL DEFAULT '{}', knobs TEXT NOT NULL DEFAULT '{}',"
    "  phases TEXT NOT NULL DEFAULT '{}', pop TEXT,"
    "  step_times TEXT NOT NULL DEFAULT '{}',"
    "  recovery TEXT NOT NULL DEFAULT '{}', extra TEXT NOT NULL DEFAULT '{}')",
    "CREATE INDEX IF NOT EXISTS idx_runs_key ON runs "
    "(scenario, n_particles, host_id, backend)",
)


class RunLedger:
    """Append-only sqlite run-history store (WAL, schema-versioned).

    Usable as a context manager; every public method is safe to call
    concurrently from multiple processes (appends serialize on sqlite's
    write lock, waiting up to :data:`~repro.observability.sqlite_file
    .TIMEOUT_S`).
    """

    def __init__(self, path):
        from .sqlite_file import open_versioned

        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = open_versioned(
            self.path,
            meta_table="ledger_meta",
            create_sql=_CREATE_SQL,
            version=SCHEMA_VERSION,
            migrations=_MIGRATIONS,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM ledger_meta WHERE key='schema_version'"
        ).fetchone()
        return int(row[0])

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # -- writes --------------------------------------------------------
    def append(self, record: RunRecord) -> str:
        """Insert one run summary; returns its ``run_id``."""
        values = []
        rec = record.as_dict()
        for col in _COLUMNS_V1:
            v = rec[col]
            if col in _JSON_COLUMNS:
                v = None if v is None else json.dumps(v, default=str)
            values.append(v)
        placeholders = ",".join("?" * len(_COLUMNS_V1))
        with self._conn:
            self._conn.execute(
                f"INSERT INTO runs ({','.join(_COLUMNS_V1)}) "
                f"VALUES ({placeholders})",
                values,
            )
        return record.run_id

    # -- reads ---------------------------------------------------------
    @staticmethod
    def _from_row(row: sqlite3.Row) -> RunRecord:
        data = dict(row)
        for col in _JSON_COLUMNS:
            raw = data.get(col)
            data[col] = json.loads(raw) if raw is not None else (
                None if col == "pop" else {}
            )
        return RunRecord(**data)

    def get(self, run_id: str) -> Optional[RunRecord]:
        """Look up one run by id, or ``None``."""
        import sqlite3

        self._conn.row_factory = sqlite3.Row
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        return self._from_row(row) if row is not None else None

    def runs(
        self,
        *,
        scenario: Optional[str] = None,
        host_id: Optional[str] = None,
        backend: Optional[str] = None,
        n_particles: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Query run summaries, newest first, filtered on the key columns."""
        clauses, params = [], []
        for col, val in (
            ("scenario", scenario),
            ("host_id", host_id),
            ("backend", backend),
            ("n_particles", n_particles),
        ):
            if val is not None:
                clauses.append(f"{col}=?")
                params.append(val)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_s DESC, run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        import sqlite3

        self._conn.row_factory = sqlite3.Row
        return [self._from_row(r) for r in self._conn.execute(sql, params)]


def _migrate_v0_to_v1(conn: sqlite3.Connection) -> None:
    """v0 rows predate the recovery counters and the free-form extra blob."""
    cols = {r[1] for r in conn.execute("PRAGMA table_info(runs)")}
    if "recovery" not in cols:
        conn.execute(
            "ALTER TABLE runs ADD COLUMN recovery TEXT NOT NULL DEFAULT '{}'"
        )
    if "extra" not in cols:
        conn.execute(
            "ALTER TABLE runs ADD COLUMN extra TEXT NOT NULL DEFAULT '{}'"
        )


_MIGRATIONS = {0: _migrate_v0_to_v1}


# ----------------------------------------------------------------------
# Simulation -> RunRecord
# ----------------------------------------------------------------------
def resolved_knobs(sim) -> Dict[str, object]:
    """The hand-settable runtime knobs a run actually resolved to.

    The names here are the contract of a ledger row's ``knobs`` column.
    """
    run = sim.run_config
    ex = run.exec
    knobs: Dict[str, object] = {
        "workers": int(ex.workers),
        "backend": sim.backend.name,
        "checkpoint_every": (
            int(run.resilience.checkpoint_every)
            if run.resilience is not None
            else None
        ),
    }
    return knobs


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (no numpy needed)."""
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[int(idx)]


def step_time_summary(durations: List[float]) -> Dict[str, float]:
    """count/best/mean/p10/p50/p90 of whole-step wall seconds."""
    if not durations:
        return {}
    vals = sorted(float(d) for d in durations)
    return {
        "count": len(vals),
        "best_s": vals[0],
        "mean_s": sum(vals) / len(vals),
        "p10_s": _percentile(vals, 0.10),
        "p50_s": _percentile(vals, 0.50),
        "p90_s": _percentile(vals, 0.90),
    }


def append_run(path, sim) -> bool:
    """Append ``sim``'s row to the ledger at ``path``; ``True`` on success.

    A broken ledger must never turn a clean shutdown into a crash — the
    run's results matter more than its history row — so a failure is a
    ``RuntimeWarning`` and ``False``.
    """
    try:
        with RunLedger(path) as ledger:
            ledger.append(record_from_simulation(sim))
        return True
    except Exception as exc:  # pragma: no cover - defensive
        warnings.warn(
            f"run-ledger append to {path!r} failed: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return False


def record_from_simulation(sim, *, scenario: Optional[str] = None) -> RunRecord:
    """Roll one finished :class:`~repro.core.simulation.Simulation` up
    into a ledger row: per-phase span aggregates, POP metrics, resolved
    knobs, step-time percentiles and recovery counters.  A phase's
    ``total_s`` is the self time of its ``USEFUL`` spans, so a span
    nested in another phase (B inside C) is counted once."""
    from .tracer import State, self_times

    name = scenario or sim.scenario or sim.config.label
    report = sim.report()

    phases: Dict[str, Dict[str, float]] = {}
    step_durations: List[float] = []
    tracer = sim.tracer
    if tracer.enabled:
        events = tracer.events
        for e, own in zip(events, self_times(events)):
            if e.state is State.STEP and e.thread == 0:
                step_durations.append(e.duration)
            elif e.state is State.USEFUL:
                agg = phases.setdefault(e.phase, {"total_s": 0.0, "count": 0})
                agg["total_s"] += own
                agg["count"] += 1
        for agg in phases.values():
            agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0

    recovery: Dict[str, float] = {}
    if report.checkpoint:
        recovery.update(
            {f"checkpoint.{k}": v for k, v in report.checkpoint.items()}
        )
    if report.guard is not None:
        recovery.update(
            {f"guard.{k}": v for k, v in report.guard.counters().items()}
        )

    fp = host_fingerprint()
    # Adopt the driver's own identity when it has one (minted at
    # construction, shared with the service's result store) so the two
    # durable records of one execution agree on run_id.
    run_id = getattr(sim, "run_id", None) or new_run_id(name)
    return RunRecord(
        run_id=run_id,
        created_s=time.time(),
        scenario=name,
        n_particles=int(sim.particles.n),
        n_steps=int(sim.step_index),
        host_id=fingerprint_id(fp),
        backend=sim.backend.name,
        code_version=code_version(),
        host=fp,
        knobs=resolved_knobs(sim),
        phases=phases,
        pop=dict(asdict(report.pop)) if report.pop is not None else None,
        step_times=step_time_summary(step_durations),
        recovery=recovery,
    )
