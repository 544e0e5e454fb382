"""Content-addressed result store: the service's dedup cache.

A sqlite table mapping ``spec_hash`` (the :meth:`JobSpec.content_hash`
over IC parameters, resolved knobs and code version) to the finished
job's outcome: the ``RunReport`` JSON, the final-field sha256 digests
and the deterministic ``result_digest`` the acceptance gates compare.

Same durability posture as the run ledger it sits alongside
(:mod:`repro.observability.ledger`): WAL journaling with a busy
timeout so concurrent writers serialize, a schema-version stamp with a
refuse-newer rule, and quarantine-and-restart for files corrupted
beyond sqlite's own recovery — the cache is an optimization, never a
single point of failure.  ``":memory:"`` is accepted for ephemeral
(test / default local) services.

Store rows and ledger rows agree on ``run_id``: the service mints the
id before the run starts and hands it to the driver, so the row the
run appends to the ledger and the row the service writes here describe
the same execution under the same key.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["STORE_SCHEMA_VERSION", "CachedResult", "ResultStore"]

STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CachedResult:
    """One stored outcome, as read back from the store."""

    spec_hash: str
    run_id: str
    created_s: float
    scenario: str
    code_version: str
    n_steps: int
    result_digest: str
    #: The full :meth:`JobOutcome.as_dict` payload (report + digests).
    outcome: Dict[str, object]
    #: The exact stored JSON text — cache hits are *bit-identical* to the
    #: originating run's record, not merely equal after a parse round trip.
    raw: str


class ResultStore:
    """Append-mostly sqlite map ``spec_hash -> outcome`` (WAL, versioned)."""

    def __init__(self, path, *, timeout_s: float = 10.0):
        in_memory = path is None or str(path) == ":memory:"
        self.path = None if in_memory else Path(path)
        self.timeout_s = float(timeout_s)
        self._conn: Optional[sqlite3.Connection] = None
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError:
            self._quarantine()
            self._conn = self._open()

    # -- lifecycle -----------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False: the manager's callers (submitting
        # threads, reads on a cache hit) and its slot threads (the write
        # after a run) share this connection; the manager's lock
        # serializes every access, so the cross-thread use is safe.
        if self.path is None:
            conn = sqlite3.connect(":memory:", check_same_thread=False)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                str(self.path),
                timeout=self.timeout_s,
                check_same_thread=False,
            )
        try:
            if self.path is not None:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    f"PRAGMA busy_timeout={int(self.timeout_s * 1000)}"
                )
            self._ensure_schema(conn)
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> None:
        if self.path is None:
            raise sqlite3.DatabaseError("in-memory store failed to open")
        target = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, target)
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        for suffix in ("-wal", "-shm"):
            try:
                Path(str(self.path) + suffix).unlink()
            except OSError:
                pass
        warnings.warn(
            f"result store at {self.path} was unreadable; quarantined to "
            f"{target} and starting a fresh store",
            RuntimeWarning,
            stacklevel=3,
        )

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        with conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS store_meta "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS results ("
                    "  spec_hash TEXT PRIMARY KEY,"
                    "  run_id TEXT NOT NULL,"
                    "  created_s REAL NOT NULL,"
                    "  scenario TEXT NOT NULL,"
                    "  code_version TEXT NOT NULL,"
                    "  n_steps INTEGER NOT NULL,"
                    "  result_digest TEXT NOT NULL,"
                    "  outcome TEXT NOT NULL)"
                )
                conn.execute(
                    "CREATE INDEX IF NOT EXISTS idx_results_scenario "
                    "ON results (scenario, code_version)"
                )
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
                return
            version = int(row[0])
            if version > STORE_SCHEMA_VERSION:
                raise RuntimeError(
                    f"result store {self.path} has schema v{version}, newer "
                    f"than this code understands (v{STORE_SCHEMA_VERSION}); "
                    f"refusing to open it"
                )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        )

    # -- writes --------------------------------------------------------
    def put(
        self,
        spec_hash: str,
        outcome: Dict[str, object],
        *,
        raw: Optional[str] = None,
    ) -> bool:
        """Store one outcome under its spec hash.

        First-writer-wins: a concurrent duplicate execution (two
        managers racing on one store) keeps the earlier row so every
        later cache hit stays bit-identical to one canonical record.
        Returns ``True`` when this call inserted the row.
        """
        text = raw if raw is not None else json.dumps(outcome, sort_keys=True)
        with self._conn:
            cur = self._conn.execute(
                "INSERT OR IGNORE INTO results "
                "(spec_hash, run_id, created_s, scenario, code_version, "
                " n_steps, result_digest, outcome) "
                "VALUES (?,?,?,?,?,?,?,?)",
                (
                    spec_hash,
                    str(outcome["run_id"]),
                    time.time(),
                    str(outcome["scenario"]),
                    str(outcome["code_version"]),
                    int(outcome["steps"]),
                    str(outcome["result_digest"]),
                    text,
                ),
            )
        return cur.rowcount > 0

    # -- reads ---------------------------------------------------------
    def get(self, spec_hash: str) -> Optional[CachedResult]:
        row = self._conn.execute(
            "SELECT spec_hash, run_id, created_s, scenario, code_version, "
            "n_steps, result_digest, outcome FROM results WHERE spec_hash=?",
            (spec_hash,),
        ).fetchone()
        if row is None:
            return None
        return CachedResult(
            spec_hash=row[0],
            run_id=row[1],
            created_s=row[2],
            scenario=row[3],
            code_version=row[4],
            n_steps=row[5],
            result_digest=row[6],
            outcome=json.loads(row[7]),
            raw=row[7],
        )

    def entries(self, *, limit: Optional[int] = None) -> List[CachedResult]:
        """All cached results, newest first (``repro jobs`` listing)."""
        sql = (
            "SELECT spec_hash FROM results ORDER BY created_s DESC, "
            "spec_hash DESC"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [self.get(r[0]) for r in self._conn.execute(sql)]
