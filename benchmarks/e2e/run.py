#!/usr/bin/env python3
"""BENCH_e2e: one end-to-end benchmark with a layer split.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    One run of one workload.  The last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
    per-layer metric (``--trace 1``).

``python3 benchmarks/e2e/run.py [--seed S] [--repeats R] [--smoke]``
    All five workloads: ``R`` untraced runs and one traced run each.
    Prints every metric by name with its unit, verifies the outputs and
    writes ``benchmarks/e2e/results/BENCH_e2e.json`` (the record
    ``compare.py`` reads).

A run is: a few set-up-only child processes (``setup_s`` is their
median), then whole units of the workload — each in a fresh child
process — until the next unit would not fit in ``--seconds`` (always at
least one).  A traced run is one untraced unit, one traced unit, and the
neighbour-search probes.  Metric names, units and bounds live in
``BENCHMARK.json`` only; this file computes a value for each name.

Exit code: 0 when every output verified, 1 on a verification failure,
2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"  # everything the benchmark writes, besides results/
RESULTS = HERE / "results" / "BENCH_e2e.json"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    SERVICE_CLIENTS,
    SERVICE_CONFIG,
    THREAD_ENV,
    WORKLOADS,
    Workload,
)

#: Set-up samples per run; ``setup_s`` is their median.
N_SETUP = 3
#: No child may run longer (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    """A child process failed or timed out."""


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def call_child(req: Dict[str, Any], tmpdir: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``child.py`` on one request; stamp spawn and receive times."""
    tmpdir = tmpdir or WORK / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONHASHSEED="0", **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    req = dict(req, src=str(SRC))
    t_spawn = time.time()
    # Its own process group, so a timeout can take the service's worker
    # processes down with the child.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(req), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{req['mode']} child exceeded {CHILD_TIMEOUT_S:.0f} s")
    t_received = time.time()
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-12:])
        raise ChildError(f"{req['mode']} child exited {proc.returncode}:\n{tail}")
    reply = json.loads(stdout.strip().splitlines()[-1])
    reply.update(t_spawn=t_spawn, t_received=t_received)
    return reply


def load_backend(tmpdir: Optional[Path] = None) -> Dict[str, Any]:
    """Load the cffi backend in a child (compiles when its cache is cold)."""
    reply = call_child({"mode": "backend"}, tmpdir)
    if reply["backend"] != "cffi":
        raise ChildError(
            "the cffi backend is unavailable (no C compiler?); the pinned "
            "workloads cannot run"
        )
    return reply


def warm_cpus(seconds: float = 2.0) -> None:
    """Keep every client's core busy for a moment before a service run.

    On the bench host a core that sat idle runs its first second or two
    of work at about half speed; a two-process workload started right
    after single-process work then reads up to 2x slow for its first
    unit.  The physics workloads run on the core the set-up children
    just used and show no such effect.
    """
    spin = f"import time\nt = time.time()\nwhile time.time() - t < {seconds}: pass"
    procs = [
        subprocess.Popen([sys.executable, "-c", spin]) for _ in range(SERVICE_CLIENTS)
    ]
    for proc in procs:
        proc.wait()


def warm_memory(megabytes: int = 1024) -> None:
    """Touch more memory than any unit peaks at (715 MB), then free it.

    First-touch memory is expensive on the bench host (about 14 us per
    4 KiB page while the host has to back it) and how much of a unit's
    memory is already backed depends on what ran in the seconds before:
    the cold step of ``patch-cold`` read 7.5-10.1 s without this and
    5.0-5.7 s with it.  Freed pages stay backed long enough for the unit
    that starts right after.
    """
    touch = f"b = bytearray({megabytes} << 20)\nfor i in range(0, len(b), 4096): b[i] = 1"
    subprocess.run([sys.executable, "-c", touch], check=True)


def cold_compile_s(scratch: Path) -> float:
    """``select_backend("cffi")`` against an empty build cache."""
    fresh = scratch / "cold-tmp"
    try:
        return float(load_backend(fresh)["select_s"])
    finally:
        shutil.rmtree(fresh, ignore_errors=True)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    scratch: Path,
    compile_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Set-ups, then units; returns metrics, verification and the stamp."""
    plan = workload.plan(seed, smoke)
    base = {
        "kind": workload.kind,
        "plan": plan,
        "service_config": SERVICE_CONFIG,
        "clients": SERVICE_CLIENTS,
    }
    counter = itertools.count()

    def child(mode: str, traced: bool = False) -> Dict[str, Any]:
        work = scratch / f"{workload.name}-{next(counter)}"
        work.mkdir(parents=True)
        try:
            return call_child(dict(base, mode=mode, trace=traced, work_dir=str(work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def run_unit(traced: bool = False) -> Dict[str, Any]:
        if workload.kind == "physics" and not smoke:
            warm_memory()
        return child("run", traced)

    if workload.kind == "service" and not smoke:
        warm_cpus()
    # A service unit times its own set-up; a physics unit cannot (the
    # public ``execute_spec`` builds and runs in one call).
    n_children = 1 if smoke else N_SETUP - (workload.kind == "service")
    setup_samples = []
    for _ in range(n_children):
        reply = child("setup")
        setup_samples.append(reply["t_ready"] - reply["t_spawn"])

    units: List[Dict[str, Any]] = []
    began = time.time()
    while True:
        units.append(_unit(workload, run_unit()))
        spent = time.time() - began
        if trace or spent + spent / len(units) > seconds:
            break
    setup_samples += [u["setup_s"] for u in units if u["setup_s"] is not None]

    ops = [ms for u in units for ms in u["ops_ms"]]
    end_to_end = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(setup_samples),
        "first_result_s": statistics.median(u["first_result_s"] for u in units),
        "op_p50_ms": percentile(ops, 0.50),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    record: Dict[str, Any] = {
        "end_to_end": end_to_end,
        "stamp": _stamp(workload, plan, units[0]["reply"]),
    }

    checked = list(units)
    if trace:
        # Probe and compile sit between the two units so that the traced
        # unit starts as long after a large process as the untraced one did
        # (a unit right behind another finds more of its memory backed).
        probe = child("probe")
        if compile_s is None:
            compile_s = cold_compile_s(scratch)
        traced = _unit(workload, run_unit(traced=True))
        checked.append(traced)
        record["per_layer"] = _per_layer(
            workload, units[0], traced, probe, compile_s, end_to_end["setup_s"]
        )
    attempted, failures = verify(workload, checked)
    record.update(attempted=attempted, failures=failures)
    return record


def _unit(workload: Workload, reply: Dict[str, Any]) -> Dict[str, Any]:
    """The end-to-end numbers of one unit, from its child's reply."""
    if workload.kind == "physics":
        stamps = reply["step_times"]
        return {
            "reply": reply,
            "wall_s": reply["t_received"] - reply["t_spawn"],
            "setup_s": None,
            "first_result_s": stamps[0] - reply["t_spawn"],
            "ops_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
            "peak_rss_mb": reply["peak_rss_mb"],
        }
    rows = reply["rows"]
    return {
        "reply": reply,
        "wall_s": reply["t_end"] - reply["t_start"],
        "setup_s": reply["t_ready"] - reply["t_spawn"],
        "first_result_s": reply["t_first_result"] - reply["t_spawn"],
        "ops_ms": [(r["t1"] - r["t0"]) * 1e3 for r in rows if "error" not in r],
        "peak_rss_mb": reply["peak_rss_mb"],
    }


def _stamp(workload: Workload, plan: Dict[str, Any], reply: Dict[str, Any]) -> Dict[str, Any]:
    """What exactly this workload name ran: resolved payload and hashes."""
    stamp = {"canonical_spec": reply["canonical"]}
    if workload.kind == "physics":
        stamp.update(
            spec_hash=reply["spec_hash"],
            n_particles=reply["n_particles"],
            result_digest=reply["result_digest"],
            energy_drift=reply["drift"].get("energy"),
        )
    else:
        digests = sorted(_digests(workload, reply).items())
        stamp.update(
            service_config=SERVICE_CONFIG,
            clients=SERVICE_CLIENTS,
            unique_specs=len(plan["specs"]),
            prefilled=len(plan["prefill"]),
            requests=len(plan["requests"]),
            cpu_affinity=plan.get("cpu_affinity"),
            spec_hashes=reply["spec_hashes"],
            result_digest=hashlib.sha256(json.dumps(digests).encode()).hexdigest(),
        )
    return stamp


# ----------------------------------------------------------------------
# Output verification (feeds ``attempted`` / ``failed``)
# ----------------------------------------------------------------------
def verify(workload: Workload, units: List[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """Count the operations and checks attempted; list the ones that failed."""
    attempted, failures = 0, []

    def check(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    replies = [u["reply"] for u in units]
    for k, reply in enumerate(replies):
        if workload.kind == "physics":
            want, got = reply["steps_requested"], reply["steps"]
            attempted += want
            failures += [f"unit {k}: step {s} not completed" for s in range(got + 1, want + 1)]
            check(len(reply["step_times"]) == want, f"unit {k}: progress callbacks != steps")
            for key, limit in workload.drift_limits.items():
                drift = reply["drift"][key]
                tol = reply["invariants"][key] if limit is None else limit
                check(drift <= tol, f"unit {k}: {key} drift {drift:.3e} > {tol:.1e}")
            backend = (reply["backend"] or {}).get("name")
            check(
                backend == reply["canonical"]["backend"],
                f"unit {k}: ran on backend {backend!r}",
            )
        else:
            for row in reply["rows"]:
                ok = (
                    "error" not in row
                    and row["steps"] == row["steps_requested"]
                    and row["drift_ok"]
                )
                if ok and row["cached"]:
                    ok = reply["origin"].get(row["spec_hash"]) == row["digest"]
                check(ok, f"unit {k}: request failed: {row.get('error', 'wrong outcome')}")
            stats = reply["stats"]
            unique = len(reply["spec_hashes"])
            executed = 0 if reply["origin"] else unique
            check(stats["submitted"] == len(reply["rows"]), f"unit {k}: submitted != requests")
            check(stats["executed"] == executed, f"unit {k}: executed {stats['executed']} != {executed}")
            check(
                stats["cache_hits"] == len(reply["rows"]) - executed,
                f"unit {k}: cache_hits {stats['cache_hits']}",
            )
            for key in ("rejected", "failed", "cancelled"):
                check(stats[key] == 0, f"unit {k}: {stats[key]} {key}")
        trace = reply.get("trace")
        if trace is not None:
            check(trace["nesting_violations"] == 0, f"unit {k}: spans do not nest")
            check(not trace["negative_self"], f"unit {k}: negative self time {trace['negative_self']}")

    # Same inputs, same bits: every unit of the run (the traced one too).
    digests = [_digests(workload, reply) for reply in replies]
    for k, other in enumerate(digests[1:], start=1):
        check(other == digests[0], f"unit {k}: result digests differ from unit 0")
    return attempted, failures


def _digests(workload: Workload, reply: Dict[str, Any]) -> Dict[str, str]:
    if workload.kind == "physics":
        return {reply["spec_hash"]: reply["result_digest"]}
    return {row["spec_hash"]: row["digest"] for row in reply["rows"] if "error" not in row}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _per_layer(
    workload: Workload,
    plain: Dict[str, Any],
    traced: Dict[str, Any],
    probe: Dict[str, Any],
    compile_s: float,
    setup_s: float,
) -> Dict[str, float]:
    reply, trace = traced["reply"], traced["reply"]["trace"]
    layers = trace["layers"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0)

    out: Dict[str, float] = {
        f"{layer}.self_s": self_s(layer)
        for layer in (
            "tracing.install", "scenarios.build", "backend.select",
            "core.simulation.wire", "core.simulation.driver",
            "tree.octree.build", "tree.octree.walk", "tree.cellgrid.search",
            "sph.smoothing.adapt", "sph.smoothing.adapt_cached", "sph.density",
            "gradients.iad", "sph.forces", "sph.eos", "gravity.barnes_hut",
            "timestepping", "core.conservation", "resilience.checkpoint.write",
            "observability.ledger.append", "service.runner.outcome",
            "service.runner.execute", "service.worker.main",
            "service.worker.import", "service.facade",
            "service.manager.submit", "service.store.put", "service.store.get",
        )
    }
    for layer in (
        "tree.octree.build", "tree.octree.walk", "tree.cellgrid.search",
        "sph.smoothing.adapt", "sph.smoothing.adapt_cached",
        "gravity.barnes_hut", "resilience.checkpoint.write",
        "service.store.put", "service.store.get",
    ):
        out[f"{layer}.calls"] = calls(layer)
    out["backend.compile_s"] = compile_s
    out["tree.octree.walk.probe_ms"] = probe["walk_probe_ms"]
    out["tree.cellgrid.search.probe_ms"] = probe["cellgrid_probe_ms"]
    out["process.spawn.self_s"] = reply["t_entry"] - reply["t_spawn"]
    out["import.self_s"] = reply["import_s"]

    ops = plain["ops_ms"]
    physics = workload.kind == "physics"
    # Readings of the untraced unit that only one kind of workload has, or
    # that are too unsteady on this host to carry a bound.
    out["op_p90_ms"] = percentile(ops, 0.9)
    out["op_samples"] = len(ops)
    out["cold_step_s"] = plain["first_result_s"] - setup_s if physics else 0.0
    out["jobs_per_s"] = 0.0 if physics else len(ops) / plain["wall_s"]
    out["job_latency_p95_ms"] = 0.0 if physics else percentile(ops, 0.95)

    # Per-step counts of the one simulation a physics unit runs (a service
    # worker's simulations report through the layer times only).
    cache = reply.get("neighbor_cache") or {}
    out["tree.octree.walk.calls_cold_step"] = trace.get("walk_calls_cold_step", 0)
    out["tree.neighborlist.cache.hit_rate"] = cache.get("hit_rate", 0.0)
    out["tree.neighborlist.cache.builds"] = cache.get("builds", 0)
    out["pairs_per_step"] = trace.get("pairs_per_step", 0.0)
    out["mean_neighbors"] = trace.get("mean_neighbors", 0.0)
    out["gravity.barnes_hut.p2p_per_step"] = trace.get("p2p_per_step", 0.0)
    out["gravity.barnes_hut.m2p_per_step"] = trace.get("m2p_per_step", 0.0)

    if physics:
        wall = reply["t_received"] - reply["t_spawn"]
        out["process.exit.self_s"] = reply["t_received"] - reply["t_done"]
        accounted = (
            sum(agg["self_s"] for agg in layers.values())
            + out["import.self_s"]
            + out["process.spawn.self_s"]
            + out["process.exit.self_s"]
        )
        stats: Dict[str, Any] = {}
        segments: Dict[str, List[float]] = {}
    else:
        # The clients' time: every request is one ``submit`` and one
        # ``result`` through the facade; the rest is the client loop.
        rows = [r for r in reply["rows"] if "error" not in r]
        wall = sum(r["t1"] - r["t0"] for r in rows)
        accounted = self_s("service.facade")
        segments = _event_segments(rows)
        stats = reply["stats"]
        out["process.exit.self_s"] = reply["t_received"] - reply["t_end"]
    for name in ("queue.wait", "worker.spawn", "worker.step", "worker.finish"):
        values = segments.get(name, [])
        out[f"service.{name}_ms"] = statistics.fmean(values) * 1e3 if values else 0.0
    submits = calls("service.manager.submit")
    out["service.manager.submit_ms"] = (
        self_s("service.manager.submit") / submits * 1e3 if submits else 0.0
    )
    out["service.store.hit_rate"] = (
        stats["cache_hits"] / stats["submitted"] if stats.get("submitted") else 0.0
    )
    for key in ("executed", "cache_hits", "coalesced", "rejected", "recoveries"):
        out[f"service.manager.{key}"] = stats.get(key, 0)
    writes = calls("resilience.checkpoint.write")
    out["resilience.checkpoint.write.bytes_per_write"] = (
        trace["counters"].get("checkpoint.bytes", 0) / writes if writes else 0.0
    )
    out["unaccounted_s"] = wall - accounted
    out["accounted_frac"] = accounted / wall
    out["tracing_overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return out


def _event_segments(rows: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Split each executed job's event stream into its waiting and working parts."""
    seg: Dict[str, List[float]] = {
        "queue.wait": [], "worker.spawn": [], "worker.step": [],
        "worker.finish": [],
    }
    for row in rows:
        stamps: Dict[str, List[float]] = {}
        for kind, ts in row.get("events", []):
            stamps.setdefault(kind, []).append(ts)
        if not {"queued", "started", "step", "done"} <= set(stamps):
            continue
        steps = stamps["step"]
        seg["queue.wait"].append(stamps["started"][0] - stamps["queued"][0])
        seg["worker.spawn"].append(steps[0] - stamps["started"][0])
        seg["worker.step"] += [b - a for a, b in zip(steps, steps[1:])]
        seg["worker.finish"].append(stamps["done"][0] - steps[-1])
    return seg


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    out: Dict[str, Any] = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def run_one(args, spec: Dict[str, Any], scratch: Path) -> int:
    """Driver mode: one run, one JSON object on the last line."""
    workload = WORKLOADS[args.workload]
    record = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke, scratch)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: Dict[str, Any], scratch: Path, host: Dict[str, Any]) -> int:
    """Every workload: repeats untraced, one traced; print, verify, record."""
    compile_s = cold_compile_s(scratch)
    out: Dict[str, Any] = {
        "benchmark": "BENCH_e2e",
        "created_s": time.time(),
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "host": host,
        "thread_env": THREAD_ENV,
        "end_to_end": spec["end_to_end"],
        "workloads": {},
    }
    failed = 0
    for name in (w["name"] for w in spec["workloads"]):
        workload = WORKLOADS[name]
        runs = [
            measure(workload, args.seed, args.seconds, False, args.smoke, scratch)
            for _ in range(args.repeats)
        ]
        traced = measure(
            workload, args.seed, args.seconds, True, args.smoke, scratch, compile_s
        )
        entry = {
            "stamp": traced["stamp"],
            "end_to_end": {
                m["name"]: summarize([r["end_to_end"][m["name"]] for r in runs])
                for m in spec["end_to_end"]
            },
            "per_layer": traced["per_layer"],
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failures": [f for r in runs + [traced] for f in r["failures"]],
        }
        # Repeats must agree bit for bit.
        digests = {r["stamp"]["result_digest"] for r in runs + [traced]}
        entry["attempted"] += 1
        if len(digests) != 1:
            entry["failures"].append("result digest differs between repeats")
        entry["failed_frac"] = len(entry["failures"]) / entry["attempted"]
        failed += len(entry["failures"])
        out["workloads"][name] = entry
        _print_workload(name, entry, spec)
    # A smoke record never replaces the committed baseline.
    path = WORK / "BENCH_e2e.smoke.json" if args.smoke else RESULTS
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    print("verification:", "ok" if not failed else f"{failed} FAILED")
    return 0 if not failed else 1


def _print_workload(name: str, entry: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(f"\n== {name}  (failed_frac {entry['failed_frac']:.4f})")
    for m in spec["end_to_end"]:
        s = entry["end_to_end"][m["name"]]
        spread = f"  spread {s['spread']:.3f}" if "spread" in s else ""
        print(f"  {m['name']:<44} {s['median']:>14.4f} {m['unit']:<6}{spread}")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<44} {entry['per_layer'][m['name']]:>14.4f} {m['unit']}")
    for line in entry["failures"]:
        print(f"  FAILED {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "api.py").is_file():
        print(f"e2e: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # Untimed: builds the cffi library if it is not cached yet, and
        # warms the bytecode and page caches for the timed children.
        host = {
            k: v for k, v in load_backend().items()
            if k in ("host", "host_id", "nproc", "code_version", "versions",
                     "backend", "backend_version")
        }
        if args.workload:
            return run_one(args, spec, scratch)
        return run_all(args, spec, scratch, host)
    except ChildError as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
