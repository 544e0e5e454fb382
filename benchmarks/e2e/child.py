"""Child-process entry of the e2e benchmark.

``run.py`` starts one fresh interpreter per measured unit and talks to it
in JSON: the request arrives on stdin, the reply is the last line of
stdout.  Everything the program does is reached through its public
surface — ``repro.api.JobSpec``, ``repro.service.runner.execute_spec`` /
``build_simulation`` and ``repro.service.LocalService``.

Modes: ``backend`` (load — and when the cache is cold, compile — the cffi
backend), ``setup`` (process start → ready, then stop), ``run`` (one whole
unit of the workload), ``probe`` (the same neighbour query through both
search implementations).  With ``trace`` set a ``run`` installs the
timing wrappers of ``tracing.py`` after the imports and removes them
before it replies.
"""

from __future__ import annotations

import time

T_ENTRY = time.time()

import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def _job_spec(fields):
    """``JobSpec`` from pinned fields, minus knobs the class no longer has."""
    from repro.api import JobSpec

    known = {f.name for f in dataclasses.fields(JobSpec)}
    dropped = sorted(set(fields) - known)
    if dropped:
        print(f"e2e: JobSpec has no field(s) {dropped}; not pinned", file=sys.stderr)
    return JobSpec.from_dict({k: v for k, v in fields.items() if k in known})


def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _recorder(req):
    if not req.get("trace"):
        return None
    from tracing import Recorder

    return Recorder()


# ----------------------------------------------------------------------
# backend: warm or cold load of the compiled backend
# ----------------------------------------------------------------------
def backend_mode(req):
    from repro.backend import select_backend
    from repro.observability import ledger

    t0 = time.time()
    backend = select_backend("cffi")
    t1 = time.time()
    import numpy
    import scipy

    return {
        "backend": backend.name,
        "backend_version": backend.version,
        "select_s": t1 - t0,
        "nproc": len(os.sched_getaffinity(0)),
        "host": ledger.host_fingerprint(),
        "host_id": ledger.fingerprint_id(),
        "code_version": ledger.code_version(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


# ----------------------------------------------------------------------
# physics: JobSpec -> execute_spec
# ----------------------------------------------------------------------
def physics_mode(req):
    from repro.service import runner

    spec = _job_spec(req["plan"]["spec"])
    if req["mode"] == "setup":
        sim, _ = runner.build_simulation(spec)
        t_ready = time.time()
        sim.close()
        return {"t_ready": t_ready}

    steps = []  # (return time, StepStats) of every step; traced run only
    t_install = time.time()
    rec = _recorder(req)
    if rec is not None:
        from tracing import PHYSICS_TARGETS

        rec.install(
            PHYSICS_TARGETS,
            taps={
                "repro.core.simulation:Simulation.step":
                    lambda stats: steps.append((time.time(), stats)),
            },
        )
    t_installed = time.time()
    step_times = []
    try:
        outcome = runner.execute_spec(
            spec, progress=lambda p: step_times.append(time.time())
        )
    finally:
        if rec is not None:
            rec.uninstall()
    t_done = time.time()

    scenario = spec.resolve()
    reply = {
        "t_done": t_done,
        "step_times": step_times,
        "steps_requested": spec.resolved_steps(scenario),
        "steps": outcome.steps,
        "n_particles": outcome.n_particles,
        "drift": outcome.drift,
        "invariants": dict(scenario.invariants),
        "result_digest": outcome.result_digest,
        "spec_hash": outcome.spec_hash,
        "canonical": spec.canonical(),
        "neighbor_cache": outcome.report.get("neighbor_cache"),
        "backend": outcome.report.get("backend"),
        "peak_rss_mb": _peak_rss_mb(children=False),
    }
    if rec is not None:
        layers = rec.layers()
        layers["tracing.install"] = {"self_s": t_installed - t_install, "calls": 1}
        first_step_end = steps[0][0]
        reply["trace"] = _trace_reply(rec, layers)
        reply["trace"].update(
            walk_calls_cold_step=sum(
                1 for span in rec.spans
                if span[0] == "tree.octree.walk" and span[2] <= first_step_end
            ),
            pairs_per_step=_mean(s.n_pairs for _, s in steps),
            mean_neighbors=_mean(s.mean_neighbors for _, s in steps),
            p2p_per_step=_mean(s.n_p2p for _, s in steps),
            m2p_per_step=_mean(s.n_m2p for _, s in steps),
        )
    return reply


def _trace_reply(rec, layers):
    return {
        "layers": layers,
        "counters": rec.counters,
        "spans": len(rec.spans),
        "nesting_violations": rec.nesting_violations(),
        "negative_self": sorted(k for k, v in layers.items() if v["self_s"] < -1e-9),
    }


def _mean(values):
    values = list(values)
    return float(sum(values)) / len(values) if values else 0.0


def probe_mode(req):
    """The workload's IC, one symmetric query at radius 2h, both searches."""
    import numpy as np

    from repro.tree.cellgrid import cell_grid_search
    from repro.tree.octree import Octree

    plan = req["plan"]
    spec = _job_spec(plan["spec"] if "spec" in plan else plan["specs"][0])
    particles, box, _ = spec.resolve().build(test=spec.test, **dict(spec.overrides))
    radii = 2.0 * particles.h
    t0 = time.time()
    walked = Octree.build(particles.x, box, leaf_size=48).walk_neighbors(
        particles.x, radii, mode="symmetric"
    )
    t1 = time.time()
    gridded = cell_grid_search(particles.x, radii, box, mode="symmetric")
    t2 = time.time()
    return {
        "walk_probe_ms": (t1 - t0) * 1e3,
        "cellgrid_probe_ms": (t2 - t1) * 1e3,
        "same_pairs": bool(
            walked.n_pairs == gridded.n_pairs
            and np.array_equal(walked.counts(), gridded.counts())
        ),
    }


# ----------------------------------------------------------------------
# service: LocalService, closed loop
# ----------------------------------------------------------------------
def service_mode(req):
    rec = _recorder(req)
    from repro.api import LocalService, ServiceConfig

    plan, work = req["plan"], req["work_dir"]
    specs = [_job_spec(fields) for fields in plan["specs"]]

    def config(jobs):
        return ServiceConfig(
            store_path=os.path.join(work, "store.sqlite"),
            ledger_path=os.path.join(work, "ledger.sqlite"),
            jobs_dir=os.path.join(work, jobs),
            **req["service_config"],
        )

    if rec is not None:
        from tracing import CHECKPOINT_BYTES, PHYSICS_TARGETS, SERVICE_TARGETS

        # Forked workers inherit the physics wrappers and dump their layers.
        rec.install(
            PHYSICS_TARGETS + SERVICE_TARGETS + ((None, CHECKPOINT_BYTES),),
            taps={CHECKPOINT_BYTES: lambda n: rec.count("checkpoint.bytes", n)},
        )
        rec.hook_worker_entry()
    try:
        # Set-up: for the read path, fill the store through a first
        # service instance, then re-open the service on it.
        origin = {}
        if plan["prefill"]:
            with LocalService(config("jobs-prefill")) as svc:
                for i in plan["prefill"]:
                    out = svc.run(specs[i])
                    origin[out.spec_hash] = out.result_digest
        svc = LocalService(config("jobs"))
        t_ready = time.time()
        if rec is not None:
            rec.reset()  # layers cover the measured window only
        try:
            if req["mode"] == "setup":
                return {"t_ready": t_ready}
            reply = _closed_loop(svc, specs, plan["requests"], req["clients"], rec)
            reply["stats"] = svc.stats()
        finally:
            svc.close()
    finally:
        if rec is not None:
            rec.uninstall()

    reply.update(
        t_ready=t_ready,
        origin=origin,
        canonical=specs[0].canonical(),
        spec_hashes=sorted({s.content_hash() for s in specs}),
        peak_rss_mb=_peak_rss_mb(children=True),
    )
    if rec is not None:
        from tracing import WORKER_DUMP, merge_layers

        layers = rec.layers()
        for path in glob.glob(os.path.join(work, "jobs", "*", WORKER_DUMP)):
            with open(path) as fh:
                dump = json.load(fh)
            merge_layers(layers, dump["layers"])
            for name, value in dump["counters"].items():
                rec.count(name, value)
        reply["trace"] = _trace_reply(rec, layers)
    return reply


def _closed_loop(svc, specs, requests, clients, rec):
    """``clients`` threads, each sending its next request after the reply."""
    results = [[] for _ in range(clients)]
    # Tiny jobs stay inside the scenario's golden horizon: its promises hold.
    invariants = dict(specs[0].resolve().invariants)
    t_start = time.time()

    def client(k):
        mine = results[k]
        for index in requests[k::clients]:
            t0 = time.time()
            row = {"t0": t0}
            try:
                handle = svc.submit(specs[index])
                out = handle.result(timeout=120.0)
                row.update(
                    t1=time.time(),
                    spec_hash=out.spec_hash,
                    digest=out.result_digest,
                    cached=out.cached,
                    steps=out.steps,
                    steps_requested=specs[index].n_steps,
                    drift_ok=all(out.drift[k] <= tol for k, tol in invariants.items()),
                )
                if rec is not None and not out.cached:
                    # Event stamps of an executed job (replayed history).
                    row["events"] = [(e.type, e.ts) for e in handle.events()]
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                row.update(t1=time.time(), error=f"{type(exc).__name__}: {exc}")
            mine.append(row)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_end = time.time()
    rows = [row for mine in results for row in mine]
    return {
        "t_start": t_start,
        "t_end": t_end,
        "t_first_result": min(row["t1"] for row in rows),
        "rows": rows,
    }


MODES = {
    "backend": backend_mode,
    "physics": physics_mode,
    "service": service_mode,
    "probe": probe_mode,
}


def main() -> int:
    req = json.load(sys.stdin)
    if req.get("plan", {}).get("cpu_affinity"):
        os.sched_setaffinity(0, req["plan"]["cpu_affinity"])
    sys.path[:0] = [req["src"], os.path.dirname(os.path.abspath(__file__))]
    import repro.api  # noqa: F401
    import_s = time.time() - T_ENTRY  # incl. the stdlib imports and the request
    reply = (MODES.get(req["mode"]) or MODES[req["kind"]])(req)
    reply.update(t_entry=T_ENTRY, import_s=import_s)
    sys.stdout.write("\n" + json.dumps(reply) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
