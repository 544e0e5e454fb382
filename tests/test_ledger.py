"""Durability contract of the sqlite run ledger.

The ledger is the persistence half of the observability loop: appended
by ``Simulation.close()``, read back by ``repro ledger``.  These
tests pin the durability promises the module docstring makes — WAL
appends serialize across processes, a torn write quarantines instead of
crashing, old schemas migrate in place, newer ones are refused — plus
the fingerprint stability the cross-host bench gates rely on.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core.config import RunConfig
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.observability import ObservabilityConfig
from repro.observability.ledger import (
    SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    code_version,
    fingerprint_id,
    host_fingerprint,
    new_run_id,
    record_from_simulation,
    step_time_summary,
)


def _record(run_id: str = "sod-deadbeef", **over) -> RunRecord:
    fields = dict(
        run_id=run_id,
        created_s=1000.0,
        scenario="sod",
        n_particles=200,
        n_steps=5,
        host_id="abc123def456",
        backend="numpy",
        code_version="cafebabe0000",
        host={"cpu_count": 4},
        knobs={"workers": 0, "backend": "numpy"},
        phases={"C": {"total_s": 1.0, "count": 5, "mean_s": 0.2}},
        pop={"parallel_efficiency": 1.0},
        step_times={"count": 5, "p50_s": 0.21, "best_s": 0.2},
        recovery={"guard.rollbacks": 0},
        extra={},
    )
    fields.update(over)
    return RunRecord(**fields)


def _small_sim(**run_kwargs) -> Simulation:
    particles, box, eos = make_square_patch(SquarePatchConfig(side=6, layers=3))
    return Simulation(
        particles, box, eos, run_config=RunConfig(**run_kwargs),
        scenario="square-patch",
    )


# --- fingerprint + code version -----------------------------------------


def test_host_fingerprint_is_stable_and_complete():
    fp1, fp2 = host_fingerprint(), host_fingerprint()
    assert fp1 == fp2
    for key in ("cpu_count", "machine", "system", "python", "numpy"):
        assert key in fp1
    assert fingerprint_id(fp1) == fingerprint_id(fp2)
    assert len(fingerprint_id(fp1)) == 12
    # A genuinely different host must map to a different id.
    other = dict(fp1, cpu_count=fp1["cpu_count"] + 64)
    assert fingerprint_id(other) != fingerprint_id(fp1)


def test_host_fingerprint_probes_once_and_hands_out_copies(monkeypatch):
    import builtins

    from repro.observability import ledger as ledger_mod

    probes = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        if name in ("numba", "cffi"):
            probes.append(name)
        return real_import(name, *args, **kwargs)

    ledger_mod._probe_host.cache_clear()
    monkeypatch.setattr(builtins, "__import__", counting_import)
    first = host_fingerprint()
    first["cpu_count"] = -1  # a caller's edit must not reach the next one
    for _ in range(50):
        assert host_fingerprint()["cpu_count"] != -1
    assert probes == ["numba", "cffi"]


def test_code_version_reads_git_head_once_per_process(tmp_path, monkeypatch):
    """``JobSpec.content_hash()`` stamps the code version on every submit;
    1000 hashes must cost one read of ``.git/HEAD``, and the same hash."""
    from pathlib import Path

    from repro.observability import ledger as ledger_mod
    from repro.service import JobSpec

    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("0123456789abcdef0123\n")
    (tmp_path / "pkg").mkdir()
    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(ledger_mod, "__file__", str(tmp_path / "pkg" / "ledger.py"))
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    code_version.cache_clear()
    try:
        spec = JobSpec(scenario="sod", n_steps=3, overrides={"n_target": 60})
        hashes = {spec.content_hash() for _ in range(1000)}
        assert code_version() == "0123456789ab"
        assert hashes == {spec.content_hash(code_version="0123456789ab")}
        assert reads == ["HEAD"]
    finally:
        code_version.cache_clear()  # forget the fake checkout


def test_code_version_resolves_or_unknown():
    v = code_version()
    assert v == "unknown" or (len(v) == 12 and all(
        c in "0123456789abcdef" for c in v
    ))


# --- round trip ---------------------------------------------------------


def test_append_get_roundtrip(tmp_path):
    path = tmp_path / "ledger.db"
    with RunLedger(path) as led:
        assert led.schema_version == SCHEMA_VERSION
        led.append(_record())
        assert len(led) == 1
        rec = led.get("sod-deadbeef")
    assert rec is not None
    assert rec.scenario == "sod"
    assert rec.knobs == {"workers": 0, "backend": "numpy"}
    assert rec.phases["C"]["count"] == 5
    assert rec.step_p50() == pytest.approx(0.21)
    with RunLedger(path) as led:
        assert led.get("nope") is None


def test_runs_filters_and_ordering(tmp_path):
    with RunLedger(tmp_path / "ledger.db") as led:
        led.append(_record("sod-00000001", created_s=1.0))
        led.append(_record("sod-00000002", created_s=2.0, backend="cffi"))
        led.append(_record("noh-00000003", created_s=3.0, scenario="noh"))
        assert [r.run_id for r in led.runs()] == [
            "noh-00000003", "sod-00000002", "sod-00000001"
        ]
        assert [r.run_id for r in led.runs(scenario="sod")] == [
            "sod-00000002", "sod-00000001"
        ]
        assert [r.run_id for r in led.runs(backend="cffi")] == ["sod-00000002"]
        assert len(led.runs(limit=1)) == 1
        assert led.runs(host_id="zzz") == []


def test_new_run_id_is_unique_and_sortable():
    a, b = new_run_id("sod"), new_run_id("sod")
    assert a != b and a.startswith("sod-") and len(a) == len("sod-") + 8


def test_step_time_summary_percentiles():
    s = step_time_summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert s["count"] == 5 and s["best_s"] == 1.0
    assert s["p50_s"] == 3.0 and s["mean_s"] == pytest.approx(3.0)
    assert step_time_summary([]) == {}


# --- schema versioning --------------------------------------------------


def _make_v0_ledger(path: Path) -> None:
    """Hand-build a v0-generation file (no recovery/extra columns)."""
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "CREATE TABLE ledger_meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "INSERT INTO ledger_meta VALUES ('schema_version', '0')"
        )
        conn.execute(
            "CREATE TABLE runs ("
            "  run_id TEXT PRIMARY KEY, created_s REAL NOT NULL,"
            "  scenario TEXT NOT NULL, n_particles INTEGER NOT NULL,"
            "  n_steps INTEGER NOT NULL, host_id TEXT NOT NULL,"
            "  backend TEXT NOT NULL, code_version TEXT NOT NULL,"
            "  host TEXT NOT NULL DEFAULT '{}',"
            "  knobs TEXT NOT NULL DEFAULT '{}',"
            "  phases TEXT NOT NULL DEFAULT '{}',"
            "  pop TEXT,"
            "  step_times TEXT NOT NULL DEFAULT '{}')"
        )
        conn.execute(
            "INSERT INTO runs (run_id, created_s, scenario, n_particles, "
            "n_steps, host_id, backend, code_version) VALUES "
            "('old-00000001', 1.0, 'sod', 100, 3, 'h0', 'numpy', 'v0')"
        )
    conn.close()


def test_v0_ledger_migrates_in_place(tmp_path):
    path = tmp_path / "ledger.db"
    _make_v0_ledger(path)
    with RunLedger(path) as led:
        assert led.schema_version == SCHEMA_VERSION
        old = led.get("old-00000001")
        assert old is not None
        assert old.recovery == {} and old.extra == {}
        led.append(_record())  # v1 writes work post-migration
        assert len(led) == 2
    # Migration is persistent, not re-run per open.
    with RunLedger(path) as led:
        assert led.schema_version == SCHEMA_VERSION
        assert len(led) == 2


def test_pre_removal_ledger_row_reads_back_verbatim(tmp_path, capsys):
    """A row written before ``pair_engine``, the numba backend, the
    online autotuner, the separate SDC monitor (``recovery`` ``sdc.*``),
    the Verlet cache's knobs and ``chunks_per_worker`` were removed
    still opens, reads back verbatim and prints through ``repro
    ledger`` — also from a migrated v0 file."""
    from repro.cli import main

    old = _record(
        run_id="square-patch-0000000001", scenario="square-patch",
        backend="numba", code_version="old",
        knobs={
            "workers": 0, "chunks_per_worker": 1, "neighbor_cache": True,
            "cache_skin": 0.5, "pair_engine": False, "backend": "numba",
            "checkpoint_every": None,
        },
        extra={"tuning": {"done": True, "explored_steps": 8,
                          "recommendation": {"backend": "numba"}}},
        recovery={"guard.rollbacks": 0, "sdc.checks_run": 20,
                  "sdc.detections": 0, "sdc.findings": 0},
    )
    path = tmp_path / "old.db"
    _make_v0_ledger(path)
    with RunLedger(path) as ledger:
        ledger.append(old)
    with RunLedger(path) as ledger:
        assert ledger.get(old.run_id) == old

    assert main(["ledger", "--path", str(path), "--show", old.run_id]) == 0
    out = capsys.readouterr().out
    assert old.run_id in out and "backend=numba" in out
    assert '"pair_engine": false' in out
    assert '"sdc.checks_run": 20' in out
    assert main(["ledger", "--path", str(path), "--list"]) == 0
    out = capsys.readouterr().out
    assert old.run_id in out and "old-00000001" in out


def test_newer_schema_is_refused(tmp_path):
    path = tmp_path / "ledger.db"
    conn = sqlite3.connect(str(path))
    with conn:
        conn.execute(
            "CREATE TABLE ledger_meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "INSERT INTO ledger_meta VALUES "
            f"('schema_version', '{SCHEMA_VERSION + 1}')"
        )
    conn.close()
    with pytest.raises(RuntimeError, match="newer"):
        RunLedger(path)


# --- torn writes / corruption -------------------------------------------


def test_garbage_file_quarantined_not_fatal(tmp_path):
    path = tmp_path / "ledger.db"
    path.write_bytes(b"this is not a sqlite database at all\x00\xff" * 40)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        led = RunLedger(path)
    try:
        led.append(_record())
        assert len(led) == 1
    finally:
        led.close()
    assert (tmp_path / "ledger.db.corrupt").exists()


def test_truncated_header_quarantined(tmp_path):
    """A torn copy that cut the file mid-header must not crash close()."""
    path = tmp_path / "ledger.db"
    with RunLedger(path) as led:
        led.append(_record())
    # Simulate the torn write: keep only the first 40 bytes.
    blob = path.read_bytes()
    path.write_bytes(blob[:40])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with RunLedger(path) as led:
            assert len(led) == 0  # fresh generation
            led.append(_record("sod-00000009"))
            assert led.get("sod-00000009") is not None


def test_committed_rows_survive_reopen(tmp_path):
    path = tmp_path / "ledger.db"
    for i in range(3):
        with RunLedger(path) as led:
            led.append(_record(f"sod-0000000{i}", created_s=float(i)))
    with RunLedger(path) as led:
        assert len(led) == 3


# --- cross-process appends ----------------------------------------------

_APPENDER = """
import sys
from repro.observability.ledger import RunLedger, RunRecord

path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with RunLedger(path, timeout_s=30) as led:
    for i in range(count):
        led.append(RunRecord(
            run_id=f"{tag}-{i:08d}", created_s=float(i), scenario="sod",
            n_particles=100, n_steps=1, host_id="h", backend="numpy",
            code_version="v",
        ))
"""


def test_concurrent_append_from_two_processes(tmp_path):
    path = tmp_path / "ledger.db"
    RunLedger(path).close()  # pre-create so both children only append
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPENDER, str(path), tag, "20"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for tag in ("alpha", "beta")
    ]
    for p in procs:
        _, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
    with RunLedger(path) as led:
        assert len(led) == 40
        assert len(led.runs(limit=40)) == 40


# --- Simulation.close() integration -------------------------------------


def test_close_appends_exactly_one_row(tmp_path):
    path = tmp_path / "ledger.db"
    sim = _small_sim(
        observability=ObservabilityConfig(ledger_path=str(path))
    )
    sim.run(n_steps=2)
    sim.close()
    sim.close()  # idempotent: a second close must not double-append
    with RunLedger(path) as led:
        assert len(led) == 1
        rec = led.runs()[0]
    assert rec.scenario == "square-patch"
    assert rec.n_steps == 2
    assert rec.n_particles == sim.particles.n
    assert rec.host_id == fingerprint_id(host_fingerprint())
    assert rec.step_times["count"] == 2
    assert rec.phases  # per-phase aggregates present
    assert rec.knobs["backend"] == "numpy"


def test_close_without_steps_appends_nothing(tmp_path):
    path = tmp_path / "ledger.db"
    sim = _small_sim(
        observability=ObservabilityConfig(ledger_path=str(path))
    )
    sim.close()
    assert not path.exists() or len(RunLedger(path)) == 0


def test_ledger_failure_never_crashes_close(tmp_path, monkeypatch):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the ledger wants a directory")
    sim = _small_sim(
        observability=ObservabilityConfig(
            ledger_path=str(blocker / "ledger.db")
        )
    )
    sim.run(n_steps=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim.close()  # must warn, not raise
    assert any("ledger" in str(w.message) for w in caught)


def test_record_from_simulation_fields():
    sim = _small_sim()
    sim.run(n_steps=2)
    try:
        rec = record_from_simulation(sim)
        assert rec.scenario == "square-patch"
        assert rec.n_steps == 2
        assert rec.knobs == {
            "workers": 0, "backend": "numpy", "checkpoint_every": None
        }
        assert rec.pop is not None
        assert json.dumps(rec.as_dict(), default=str)  # serializable
    finally:
        sim.close()
