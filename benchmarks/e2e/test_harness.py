"""Tests of the e2e benchmark harness, on the ``--smoke`` sizes.

Run from the repository root (the parent ``benchmarks/conftest.py`` needs
the package on the path)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

N~500 particles, 5 steps, 12 / 498 service requests: the point is the
harness — names, units, span accounting, wrapper removal, verification —
not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.benchmark_spec()
PHYSICS = [n for n, w in WORKLOADS.items() if w.kind == "physics"]


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, cwd=run.ROOT,
    )


@pytest.fixture(scope="module")
def smoke():
    """One full ``--smoke`` command: its stdout and the record it wrote."""
    proc = _run("--smoke", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(run.WORK / "BENCH_e2e.smoke.json") as fh:
        return proc.stdout, json.load(fh)


def test_benchmark_json_names_and_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, record = smoke
    for name in WORKLOADS:
        block = stdout.split(f"== {name} ")[1].split("\n== ")[0]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert re.search(
                rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)",
                block, re.M,
            ), (name, m["name"])
        entry = record["workloads"][name]
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert entry["failures"] == [] and entry["failed_frac"] == 0.0
        assert entry["stamp"]["canonical_spec"]["preset"] == "sph-exa"


def test_record_is_stamped(smoke):
    _, record = smoke
    host = record["host"]
    assert host["backend"] == "cffi" and "gcc" in host["backend_version"]
    assert host["host_id"] and host["nproc"] >= 1 and host["versions"]["numpy"]
    assert record["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert record["workloads"]["patch-cold"]["stamp"]["spec_hash"]


@pytest.mark.parametrize("name", PHYSICS)
def test_layers_account_for_the_traced_wall(smoke, name):
    layers = smoke[1]["workloads"][name]["per_layer"]
    assert layers["accounted_frac"] >= 0.98
    assert layers["unaccounted_s"] >= -1e-6
    assert all(v >= -1e-9 for k, v in layers.items() if k.endswith(".self_s"))
    assert layers["tree.octree.walk.calls"] >= layers["tree.octree.walk.calls_cold_step"] > 0


def test_service_workloads_take_different_paths(smoke):
    miss = smoke[1]["workloads"]["service-miss"]["per_layer"]
    hit = smoke[1]["workloads"]["service-hit"]["per_layer"]
    assert miss["service.manager.executed"] == 12 and miss["service.manager.cache_hits"] == 0
    assert hit["service.manager.executed"] == 0 and hit["service.manager.cache_hits"] == 498
    assert miss["resilience.checkpoint.write.calls"] > 0 == hit["resilience.checkpoint.write.calls"]
    assert miss["service.worker.spawn_ms"] > 0 and hit["service.store.hit_rate"] == 1.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_run_prints_the_contract_line(trace):
    proc = _run("--workload", "patch-cold", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, str(run.SRC))
    import repro.api  # noqa: F401
    from repro.sph import smoothing
    from repro.tree.octree import Octree
    from tracing import PHYSICS_TARGETS, Recorder

    before = (vars(Octree)["walk_neighbors"], vars(Octree)["build"],
              smoothing.cell_grid_search)
    rec = Recorder()
    rec.install(PHYSICS_TARGETS)
    assert getattr(Octree.walk_neighbors, "__wrapped_by_e2e__", False)
    assert smoothing.cell_grid_search is not before[2]
    rec.uninstall()
    after = (vars(Octree)["walk_neighbors"], vars(Octree)["build"],
             smoothing.cell_grid_search)
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_and_self_times_add_up():
    from tracing import Recorder

    rec = Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    with rec.span("root") as root:
        outer()
    layers = rec.layers()
    assert rec.nesting_violations() == 0
    assert layers["inner"]["calls"] == 3 and layers["outer"]["calls"] == 1
    assert all(agg["self_s"] >= 0 for agg in layers.values())
    assert sum(a["self_s"] for a in layers.values()) == pytest.approx(root[2] - root[1])


def test_a_failing_job_counts_as_failed(tmp_path):
    def plan(seed, smoke):
        good = WORKLOADS["service-miss"].plan(seed, True)["specs"][:2]
        bad = dict(good[0], overrides={"n_target": 5})  # SodConfig refuses n < 20
        return {"specs": good + [bad], "prefill": [], "requests": [0, 1, 2]}

    record = run.measure(Workload("failing", "service", plan), 0, 0.0, False, True, tmp_path)
    assert len(record["failures"]) >= 1
    assert 0 < len(record["failures"]) / record["attempted"] < 1
