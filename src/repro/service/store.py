"""Content-addressed result store: the service's dedup cache.

A sqlite table mapping ``spec_hash`` (the :meth:`JobSpec.content_hash`
over IC parameters, resolved knobs and code version) to the finished
job's outcome: the ``RunReport`` JSON, the final-field sha256 digests
and the deterministic ``result_digest`` the acceptance gates compare.

Durability is the run ledger's, from the opener both files share
(:func:`repro.observability.sqlite_file.open_versioned`): WAL with a
busy timeout, a refuse-newer schema stamp, a locked file waited on and
never moved, a corrupt one quarantined — the cache is an optimization,
never a single point of failure.  ``":memory:"`` (or ``None``) gives an
ephemeral store (tests, the default local service).

Store rows and ledger rows agree on ``run_id``: the service mints the
id before the run starts and hands it to the driver, so the row the
run appends to the ledger and the row the service writes here describe
the same execution under the same key.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..observability.sqlite_file import open_versioned

__all__ = ["STORE_SCHEMA_VERSION", "CachedResult", "ResultStore"]

STORE_SCHEMA_VERSION = 1

_CREATE_SQL = (
    "CREATE TABLE IF NOT EXISTS results ("
    "  spec_hash TEXT PRIMARY KEY, run_id TEXT NOT NULL,"
    "  created_s REAL NOT NULL, scenario TEXT NOT NULL,"
    "  code_version TEXT NOT NULL, n_steps INTEGER NOT NULL,"
    "  result_digest TEXT NOT NULL, outcome TEXT NOT NULL)",
    "CREATE INDEX IF NOT EXISTS idx_results_scenario "
    "ON results (scenario, code_version)",
)


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

    def __init__(self, path):
        # check_same_thread=False: the manager's callers (submitting
        # threads, reads on a cache hit) and its slot threads (the write
        # after a run) share this connection; the manager's lock
        # serializes every access, so the cross-thread use is safe.
        self._conn: Optional[sqlite3.Connection] = open_versioned(
            path,
            meta_table="store_meta",
            create_sql=_CREATE_SQL,
            version=STORE_SCHEMA_VERSION,
            check_same_thread=False,
        )

    # -- lifecycle -----------------------------------------------------
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
    def put(self, spec_hash: str, outcome: Dict[str, object]) -> bool:
        """Store one outcome under its spec hash.

        First-writer-wins: a concurrent duplicate execution (two
        managers racing on one store) keeps the earlier row so every
        later cache hit stays bit-identical to one canonical record.
        Returns ``True`` when this call inserted the row.
        """
        text = json.dumps(outcome, sort_keys=True)
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
