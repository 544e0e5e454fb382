"""Snapshots, report tables, conservation ledger, feature tables."""

import numpy as np
import pytest

from repro.core.conservation import measure_conservation, relative_drift
from repro.io.reporting import format_table
from repro.io.snapshot import load_snapshot, save_snapshot
from repro.model.feature_tables import (
    table1_physics_features,
    table2_miniapp_features,
    table3_cs_features,
    table4_miniapp_cs_features,
)


def test_snapshot_roundtrip(tmp_path, random_cloud):
    random_cloud.extra["p0"] = np.arange(random_cloud.n, dtype=np.float64)
    path = tmp_path / "snap.npz"
    save_snapshot(path, random_cloud, time=1.25)
    back, t = load_snapshot(path)
    assert t == 1.25
    assert np.array_equal(back.x, random_cloud.x)
    assert np.array_equal(back.extra["p0"], random_cloud.extra["p0"])


def test_format_table():
    out = format_table(["a", "bb"], [[1, "xy"], [22, "z"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "-" in lines[2]
    assert "22" in lines[4]
    with pytest.raises(ValueError, match="cells"):
        format_table(["a"], [[1, 2]])


def test_conservation_snapshot(random_cloud):
    c = measure_conservation(random_cloud, time=1.0, potential_energy=-2.0)
    assert c.total_energy == pytest.approx(
        c.kinetic_energy + c.internal_energy - 2.0
    )
    assert "E_tot" in c.summary()


def test_relative_drift_zero_for_identical(random_cloud):
    a = measure_conservation(random_cloud, 0.0)
    b = measure_conservation(random_cloud, 1.0)
    d = relative_drift(a, b)
    assert d["mass"] == 0.0
    assert d["momentum"] == 0.0
    assert d["energy"] == 0.0


def test_relative_drift_detects_changes(random_cloud):
    a = measure_conservation(random_cloud, 0.0)
    random_cloud.v *= 1.1
    b = measure_conservation(random_cloud, 1.0)
    d = relative_drift(a, b)
    assert d["energy"] > 0.0
    assert d["momentum"] >= 0.0


def test_relative_drift_cold_start():
    """Evrard-like cold ICs (v=0): momentum drift must stay finite."""
    from repro.core.particles import ParticleSystem

    p = ParticleSystem.zeros(10)
    p.u[:] = 0.05
    a = measure_conservation(p, 0.0, potential_energy=-1.0)
    p.v[:, 0] = 1e-8
    b = measure_conservation(p, 1.0, potential_energy=-1.0)
    d = relative_drift(a, b)
    assert np.isfinite(d["momentum"])
    assert d["momentum"] < 1.0


# ----------------------------------------------------------------------
# Feature tables (Tables 1-4)
# ----------------------------------------------------------------------
def test_table1_contents():
    t = table1_physics_features()
    assert "SPHYNX" in t and "ChaNGa" in t and "SPH-flow" in t
    assert "sinc" in t and "IAD" in t and "Generalized" in t
    assert "Multipoles (4-pole)" in t
    assert "Multipoles (16-pole)" in t
    assert "Tree Walk" in t
    assert t.count("\n") >= 4


def test_table2_contents():
    t = table2_miniapp_features()
    assert "SPH-EXA" in t
    assert "m4-cubic-spline" in t and "wendland-c2" in t and "sinc" in t
    assert "Global, Individual, Adaptive" in t
    assert "Multipoles (16-pole)" in t


def test_table3_contents():
    t = table3_cs_features()
    assert "Straightforward" in t
    assert "Space Filling Curve" in t
    assert "Orthogonal Recursive Bisection" in t
    assert "None (static)" in t and "Local-Inner-Outer" in t
    assert "25,000" in t and "110,000" in t and "37,000" in t
    assert "Fortran 90" in t and "C++" in t
    assert "64-bit" in t


def test_table4_contents():
    t = table4_miniapp_cs_features()
    assert "DLB with self-scheduling" in t
    assert "Optimal interval, Multilevel" in t
    assert "Silent data corruption detectors" in t
