"""One opener for the package's versioned sqlite files.

The run ledger (:mod:`repro.observability.ledger`) and the result store
(:mod:`repro.service.store`) keep their tables, row codecs and queries;
:func:`open_versioned` holds the durability policy they share: one busy
timeout (:data:`TIMEOUT_S`), WAL and ``synchronous=NORMAL`` on a file
(``None`` / ``":memory:"`` skips them), and a ``schema_version`` stamp
in a meta table — an older file migrates in place, a newer one is
refused, a missing stamp is written under ``BEGIN IMMEDIATE`` after a
re-check so two creators cannot collide.  A locked file is waited on
until the timeout, then raises, and is never touched; only a file that
is not a database or is malformed is quarantined to ``<path>.corrupt``
(with its ``-wal``/``-shm`` files and a ``RuntimeWarning``) and started
afresh — both files are optimizations, never a point of failure.
"""

from __future__ import annotations

import os
import sqlite3
import time
import warnings
from contextlib import suppress
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

__all__ = ["TIMEOUT_S", "open_versioned"]

#: Seconds an open, and every later statement, waits on another
#: connection's lock before it raises.
TIMEOUT_S = 10.0


def open_versioned(
    path,
    *,
    meta_table: str,
    create_sql: Sequence[str],
    version: int,
    migrations: Optional[Dict[int, Callable]] = None,
    check_same_thread: bool = True,
) -> sqlite3.Connection:
    """Open (creating or migrating) the sqlite file at ``path``.

    ``create_sql`` builds a fresh file's tables, ``migrations[v]`` lifts
    a file from ``v`` to ``v + 1``.  Returns a connection whose file is
    stamped ``version``.
    """
    schema = (meta_table, tuple(create_sql), version, migrations or {})
    if path is None or str(path) == ":memory:":
        conn = sqlite3.connect(":memory:", check_same_thread=check_same_thread)
        _handshake(conn, path, *schema)
        return conn
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        return _open_file(path, schema, check_same_thread)
    except sqlite3.DatabaseError as exc:
        if type(exc) is not sqlite3.DatabaseError:
            raise
        _quarantine(path)
        return _open_file(path, schema, check_same_thread)


def _open_file(
    path: Path, schema, check_same_thread: bool
) -> sqlite3.Connection:
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        conn = sqlite3.connect(
            str(path),
            timeout=max(0.0, deadline - time.monotonic()),
            check_same_thread=check_same_thread,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            _handshake(conn, path, *schema)
            conn.execute(f"PRAGMA busy_timeout={int(TIMEOUT_S * 1000)}")
            return conn
        except BaseException as exc:
            conn.close()
            # Only a lock is worth waiting out, and only until the deadline.
            locked = isinstance(exc, sqlite3.OperationalError) and (
                "locked" in str(exc)
            )
            if not locked or time.monotonic() >= deadline:
                raise
        time.sleep(0.005)


def _stamp(conn: sqlite3.Connection, meta_table: str) -> Optional[int]:
    """The file's ``schema_version``, or ``None`` before it is written."""
    if conn.execute(
        "SELECT 1 FROM sqlite_master WHERE type='table' AND name=?",
        (meta_table,),
    ).fetchone() is None:
        return None
    row = conn.execute(
        f"SELECT value FROM {meta_table} WHERE key='schema_version'"
    ).fetchone()
    return None if row is None else int(row[0])


def _handshake(conn, path, meta_table, create_sql, version, migrations) -> None:
    found = _stamp(conn, meta_table)
    if found is None or found < version:
        # Write under the file's write lock, re-reading what another
        # opener may have written since the read above.
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {meta_table} "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            found = _stamp(conn, meta_table)
            if found is None:
                for sql in create_sql:
                    conn.execute(sql)
                conn.execute(
                    f"INSERT INTO {meta_table} (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(version),),
                )
                found = version
            while found < version:
                migrations[found](conn)
                found += 1
                conn.execute(
                    f"UPDATE {meta_table} SET value=? "
                    "WHERE key='schema_version'",
                    (str(found),),
                )
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
    if found > version:
        raise RuntimeError(
            f"{path} has schema v{found}, newer than this code understands "
            f"(v{version}); refusing to open it"
        )


def _quarantine(path: Path) -> None:
    """Move an unreadable file aside, drop its sidecars, and warn."""
    target = path.with_name(path.name + ".corrupt")
    with suppress(OSError):
        os.replace(path, target)
    for stale in (path, f"{path}-wal", f"{path}-shm"):
        with suppress(OSError):
            os.unlink(stale)
    warnings.warn(
        f"{path} was unreadable; quarantined to {target} and starting a "
        f"fresh file",
        RuntimeWarning,
        stacklevel=4,
    )
