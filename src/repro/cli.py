"""Command-line interface: ``python -m repro <command>``.

Mini-apps live or die by how easy they are to drive — "the building
should be kept as simple as a Makefile and the preparation of the run to
a handful of command line arguments" (Section 2, quoting Messer et al.).
This CLI exposes the library's main entry points with exactly that
surface.

Commands::

    python -m repro run <scenario> [--n 500 | --side 16 --layers 8] [--steps 5]
    python -m repro run sedov --steps 10 --json
    python -m repro serve --socket /tmp/repro.sock
    python -m repro submit sod --steps 50 --socket /tmp/repro.sock
    python -m repro jobs --socket /tmp/repro.sock
    python -m repro scenarios [--list | --json]
    python -m repro scaling --code sph-flow --test square --n 200000
    python -m repro tables

``run`` and ``submit`` share one spec-parsing path: the same flags
resolve to the same :class:`~repro.service.spec.JobSpec`, so a one-shot
run and a service submission of the same request are the same job (and
hash to the same cache line).  ``run`` executes in-process and streams
per-step lines; ``submit`` sends the spec to a ``repro serve`` instance
over its UNIX socket.  The legacy spelling ``squarepatch`` keeps
working as an alias of ``square-patch``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .backend.base import BACKEND_CHOICES

#: Legacy spellings accepted by earlier releases of this CLI.
_ALIASES = {"squarepatch": "square-patch"}


# ---------------------------------------------------------------------------
# Shared spec parsing: flags -> JobSpec (run and submit use the same path)
# ---------------------------------------------------------------------------


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The request-defining flags, identical for ``run`` and ``submit``."""
    parser.add_argument("case", metavar="scenario",
                        help="a registry name (see: python -m repro scenarios)")
    parser.add_argument("--preset", default="sph-exa",
                        help="sphynx | changa | sph-flow | sph-exa")
    parser.add_argument("--side", type=int, default=None,
                        help="square-patch only: particles per side")
    parser.add_argument("--layers", type=int, default=None,
                        help="square-patch only: extruded Z layers")
    parser.add_argument("--n", type=int, default=None,
                        help="size (particle target or lattice cells per axis, "
                             "depending on the scenario)")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--neighbors", type=int, default=None)
    parser.add_argument("--backend", default=None,
                        choices=BACKEND_CHOICES,
                        help="SPH hot-path execution backend (default numpy; "
                             "'auto' is cffi when it builds, else numpy)")
    parser.add_argument("--guard", action="store_true",
                        help="enable the self-healing step guard (rollback-"
                             "and-retry with the scenario's invariant bounds)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject numerical faults: kind:array@step"
                             "[:site][*fires][!] (e.g. nan:rho@3, huge:cs@4, "
                             "nan:rho@2! for a persistent fault)")


def _spec_from_args(args: argparse.Namespace):
    """Resolve the shared flags into a validated ``(spec, scenario)``.

    Raises :class:`~repro.service.spec.SpecError` for every malformed
    request — unknown scenario, wrong size flag, bad chaos spelling —
    which both commands map to exit code 2.
    """
    from .scenarios import UnknownScenarioError, get_scenario
    from .service.spec import JobSpec, SpecError

    try:
        scenario = get_scenario(_ALIASES.get(args.case, args.case))
    except UnknownScenarioError as exc:
        raise SpecError(exc.args[0]) from None

    overrides = {}
    if args.n is not None:
        if scenario.size_param is None:
            raise SpecError(
                f"{scenario.name} is sized with --side/--layers, not --n"
            )
        overrides[scenario.size_param] = args.n
    if args.side is not None or args.layers is not None:
        if scenario.name != "square-patch":
            raise SpecError(
                f"--side/--layers only apply to square-patch, "
                f"not {scenario.name}"
            )
        if args.side is not None:
            overrides["side"] = args.side
        if args.layers is not None:
            overrides["layers"] = args.layers

    spec = JobSpec(
        scenario=scenario.name,
        overrides=overrides,
        n_steps=args.steps,
        preset=args.preset,
        n_neighbors=args.neighbors,
        backend=args.backend if args.backend is not None else "numpy",
        guard=args.guard,
        chaos=args.chaos,
    )
    spec.resolve()  # surface every SpecError here, not mid-run
    return spec, scenario


# ---------------------------------------------------------------------------
# run: one-shot in-process execution with per-step progress lines
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.presets import get_preset
    from .service.runner import build_simulation, resume_and_run
    from .service.spec import SpecError

    try:
        spec, scenario = _spec_from_args(args)
        sim, _ = build_simulation(
            spec,
            checkpoint_dir=args.checkpoint_dir,
            ledger_path=args.ledger,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    preset = get_preset(args.preset)
    # With --json the document is alone on stdout; the log moves to stderr.
    log = sys.stderr if args.json else sys.stdout
    print(f"{args.case}: {sim.particles.n} particles, preset {preset.label}",
          file=log)
    print(f"backend: {sim.backend.name} "
          f"(requested {sim.backend_requested}; {sim.backend.version})",
          file=log)
    n_steps = spec.resolved_steps(scenario)

    def progress(s) -> None:
        print(f"  step {s.index}: t={s.time:.4e} dt={s.dt:.2e} "
              f"{s.conservation.summary()}", file=log)

    sim.on_step(progress)
    try:
        try:
            resume_and_run(sim, n_steps)
        except Exception as exc:  # noqa: BLE001 - the CLI failure boundary
            return _report_failure(sim, exc, scenario, args)
        drift = sim.conservation_drift()
        print(f"drift: mass={drift['mass']:.2e} momentum={drift['momentum']:.2e} "
              f"energy={drift['energy']:.2e}", file=log)
        rep = sim.report()
        if rep.gravity is not None:
            from .observability.report import format_gravity

            print(format_gravity(rep.gravity), file=log)
        if rep.guard is not None:
            print(rep.guard.summary(), file=log)
        if args.json:
            summary = {
                "scenario": scenario.name,
                "preset": preset.label,
                "n_particles": sim.particles.n,
                "n_steps": n_steps,
                "final_time": sim.time,
                "final_dt": sim.history[-1].dt if sim.history else None,
                "drift": drift,
                "guard": rep.guard.as_dict() if rep.guard is not None else None,
                "backend": rep.backend,
                "neighbor_cache": rep.neighbor_cache,
                "h_iteration": rep.h_iteration,
                "gravity": rep.gravity,
            }
            print(json.dumps(summary, indent=2))
    finally:
        sim.close()
    return 0


def _report_failure(sim, exc, scenario, args) -> int:
    """Failure UX: one readable paragraph + optional JSON record, exit 1.

    A dying run — guard-terminal or any other step-loop error — must not
    greet the operator with a raw traceback.  The guard's structured
    post-mortem is used when available; other exceptions get a paragraph
    built from the driver's position.
    """
    from .resilience.guard import UnrecoverableStepError

    if isinstance(exc, UnrecoverableStepError):
        pm = exc.post_mortem
        paragraph = pm.describe()
        record = {"error": "unrecoverable-step", "post_mortem": pm.as_dict()}
    else:
        paragraph = (
            f"step {sim.step_index} (t={sim.time:.6g}) failed with "
            f"{type(exc).__name__}: {exc}. The run completed "
            f"{len(sim.history)} healthy step(s) before dying; re-run "
            f"with --guard to enable rollback-and-retry recovery."
        )
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "step": sim.step_index,
            "time": sim.time,
        }
    print(f"error: run failed — {paragraph}", file=sys.stderr)
    if args.json:
        record["scenario"] = scenario.name
        guard = sim.step_guard.report() if sim.step_guard is not None else None
        record["guard"] = guard.as_dict() if guard is not None else None
        print(json.dumps(record, indent=2))
    return 1


# ---------------------------------------------------------------------------
# serve / submit / jobs: the service transport
# ---------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .service.manager import ServiceConfig
    from .service.server import serve_forever

    if os.path.exists(args.socket):
        print(f"error: socket path {args.socket!r} already exists",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        store_path=args.store,
        jobs_dir=args.jobs_dir,
        ledger_path=args.ledger,
        isolation=args.isolation,
        max_workers=args.workers,
        queue_capacity=args.queue_capacity,
    )
    print(f"serving on {args.socket} "
          f"({config.isolation} isolation, {config.max_workers} worker slots, "
          f"store {args.store or 'in-memory'})")
    try:
        serve_forever(args.socket, config)
    except KeyboardInterrupt:
        pass
    finally:
        try:
            os.unlink(args.socket)
        except OSError:
            pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.server import client_submit
    from .service.spec import SpecError

    try:
        spec, _ = _spec_from_args(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    log = sys.stderr if args.json else sys.stdout
    outcome = None
    try:
        for reply in client_submit(
            args.socket,
            spec,
            tenant=args.tenant,
            wait=not args.no_wait,
            events=args.events,
        ):
            if "event" in reply:
                ev = reply["event"]
                payload = {
                    k: v for k, v in ev["payload"].items() if k != "job_id"
                }
                print(f"  event {ev['seq']}: {ev['type']} "
                      f"{json.dumps(payload, sort_keys=True)}", file=log)
            elif "job_id" in reply:
                print(f"job {reply['job_id']} {reply['state']} "
                      f"spec {reply['spec_hash'][:12]}", file=log)
            elif reply.get("ok") and "outcome" in reply:
                outcome = reply["outcome"]
            elif not reply.get("ok", True):
                if reply.get("error") == "queue_full":
                    print(f"error: queue full, retry after "
                          f"{reply['retry_after']:.2f}s", file=sys.stderr)
                    return 3
                print(f"error: {reply.get('error')}", file=sys.stderr)
                return 1
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"error: cannot reach server at {args.socket!r}: {exc}",
              file=sys.stderr)
        return 1

    if outcome is not None:
        source = "cache" if outcome.get("cached") else "run"
        print(f"done ({source}): run {outcome['run_id']} "
              f"steps={outcome['steps']} t={outcome['time']:.4e} "
              f"digest {outcome['result_digest'][:12]}", file=log)
        if args.json:
            print(json.dumps(outcome, indent=2))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service.server import client_request

    try:
        if args.stats:
            reply = client_request(args.socket, {"op": "stats"})
        else:
            reply = client_request(args.socket, {"op": "jobs"})
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"error: cannot reach server at {args.socket!r}: {exc}",
              file=sys.stderr)
        return 1
    if not reply.get("ok"):
        print(f"error: {reply.get('error')}", file=sys.stderr)
        return 1

    if args.stats:
        stats = reply["stats"]
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            for key in sorted(stats):
                print(f"{key}: {stats[key]}")
        return 0

    rows = reply["jobs"]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no jobs")
        return 0
    print(f"{'job-id':<10} {'state':<10} {'scenario':<14} "
          f"{'spec':<12} {'src':<6} tenant")
    for row in rows:
        source = "cache" if row.get("cached") else (
            f"rec×{row['recoveries']}" if row.get("recoveries") else "run"
        )
        print(f"{row['job_id']:<10} {row['state']:<10} "
              f"{row['scenario']:<14} {row['spec_hash'][:12]:<12} "
              f"{source:<6} {row['tenant']}")
    return 0


# ---------------------------------------------------------------------------
# scenarios / scaling / tables / ledger (unchanged surfaces)
# ---------------------------------------------------------------------------


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import all_scenarios, golden_path

    entries = []
    for sc in all_scenarios():
        gate = None
        if sc.analytic is not None:
            gate = {
                "fields": sorted(sc.analytic.tolerances),
                "tolerances": dict(sc.analytic.tolerances),
                "n_steps": sc.analytic.n_steps,
            }
        entries.append(
            {
                "name": sc.name,
                "description": sc.description,
                "params": dict(sc.params),
                "test_params": dict(sc.test_params),
                "invariants": dict(sc.invariants),
                "analytic_gate": gate,
                "golden": golden_path(sc.name).exists(),
            }
        )

    if args.json:
        print(json.dumps(entries, indent=2))
        return 0

    name_w = max(len(e["name"]) for e in entries)
    print(f"{'scenario':<{name_w}}  gate        golden  description")
    for e in entries:
        gate = ",".join(e["analytic_gate"]["fields"]) if e["analytic_gate"] else "-"
        golden = "yes" if e["golden"] else "MISSING"
        print(f"{e['name']:<{name_w}}  {gate:<10}  {golden:<6}  {e['description']}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .core.presets import get_preset
    from .runtime import (
        MACHINES,
        build_workload,
        format_scaling_table,
        strong_scaling,
    )

    preset = get_preset(args.code)
    workload = build_workload(args.test, args.n)
    machine = MACHINES[args.machine]
    cores = tuple(int(c) for c in args.cores.split(","))
    series = strong_scaling(preset, args.test, machine, cores,
                            workload=workload, n_steps=args.steps)
    print(format_scaling_table([series]))
    for p in series.points:
        print(f"  {p.pop.row()}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .core.feature_tables import (
        table1_physics_features,
        table2_miniapp_features,
        table3_cs_features,
        table4_miniapp_cs_features,
    )

    for table in (
        table1_physics_features(),
        table2_miniapp_features(),
        table3_cs_features(),
        table4_miniapp_cs_features(),
    ):
        print(table)
        print()
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    import dataclasses
    import os

    from .observability.ledger import RunLedger

    if not os.path.exists(args.path):
        print(f"error: no ledger at {args.path!r}", file=sys.stderr)
        return 2

    with RunLedger(args.path) as ledger:
        if args.show is not None:
            rec = ledger.get(args.show)
            if rec is None:
                print(f"error: unknown run id {args.show!r}", file=sys.stderr)
                return 2
            if args.json:
                print(json.dumps(dataclasses.asdict(rec), indent=2))
                return 0
            p50 = rec.step_p50()
            print(f"run {rec.run_id}")
            print(f"  scenario={rec.scenario} n={rec.n_particles} "
                  f"steps={rec.n_steps} backend={rec.backend}")
            print(f"  host={rec.host_id} code={rec.code_version}")
            print(f"  step p50: "
                  f"{p50 * 1e3:.2f} ms" if p50 is not None else "  step p50: -")
            print(f"  knobs: {json.dumps(rec.knobs, sort_keys=True)}")
            for phase, agg in sorted(rec.phases.items()):
                total = agg.get("total_s", 0.0)
                print(f"  phase {phase}: total={total * 1e3:.2f} ms "
                      f"spans={agg.get('count', 0)}")
            if rec.pop:
                print(f"  pop: {json.dumps(rec.pop, sort_keys=True)}")
            if rec.recovery:
                print(f"  recovery: {json.dumps(rec.recovery, sort_keys=True)}")
            return 0

        rows = ledger.runs(scenario=args.scenario, limit=args.limit)
        if args.json:
            print(json.dumps(
                [dataclasses.asdict(r) for r in rows], indent=2
            ))
            return 0
        if not rows:
            print("ledger is empty")
            return 0
        print(f"{'run-id':<24} {'scenario':<14} {'n':>8} {'steps':>5} "
              f"{'backend':<7} {'p50 ms/step':>11}  host")
        for r in rows:
            p50 = r.step_p50()
            p50_s = f"{p50 * 1e3:.2f}" if p50 is not None else "-"
            print(f"{r.run_id:<24} {r.scenario:<14} {r.n_particles:>8} "
                  f"{r.n_steps:>5} {r.backend:<7} {p50_s:>11}  {r.host_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SPH-EXA mini-app reproduction (CLUSTER 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from the registry")
    _add_spec_arguments(run)
    run.add_argument("--json", action="store_true",
                     help="print a machine-readable run summary alone on "
                          "stdout (the log moves to stderr)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write rolling checkpoints to DIR; a re-run "
                          "resumes from the newest one and stops at --steps")
    run.add_argument("--ledger", default=None, metavar="DB",
                     help="append this run to the sqlite run ledger at DB")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="run the simulation service on a UNIX socket"
    )
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="UNIX socket path to listen on")
    serve.add_argument("--isolation", default="process",
                       choices=("inline", "process"),
                       help="worker-slot style: 'process' forks one process "
                            "per job and absorbs worker death by resuming "
                            "from its checkpoint; 'inline' runs on threads "
                            "(faster, no death absorption)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent worker slots (default 2)")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="admission queue bound; beyond it submissions "
                            "are rejected with a retry-after (default 64)")
    serve.add_argument("--store", default=None, metavar="DB",
                       help="durable result store (sqlite); default in-memory")
    serve.add_argument("--jobs-dir", default=None, metavar="DIR",
                       help="per-job checkpoint directories (default: temp)")
    serve.add_argument("--ledger", default=None, metavar="DB",
                       help="append executed jobs to the run ledger at DB")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a run to a repro serve instance"
    )
    _add_spec_arguments(submit)
    submit.add_argument("--socket", required=True, metavar="PATH",
                        help="the server's UNIX socket path")
    submit.add_argument("--tenant", default="cli",
                        help="fair-share identity (default 'cli')")
    submit.add_argument("--no-wait", action="store_true",
                        help="return after the ack instead of waiting "
                             "for the outcome")
    submit.add_argument("--events", action="store_true",
                        help="stream the job's event log while waiting")
    submit.add_argument("--json", action="store_true",
                        help="print the full outcome record as JSON alone "
                             "on stdout (the log moves to stderr)")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser("jobs", help="list a server's job table")
    jobs.add_argument("--socket", required=True, metavar="PATH",
                      help="the server's UNIX socket path")
    jobs.add_argument("--stats", action="store_true",
                      help="print service counters instead of the job table")
    jobs.add_argument("--json", action="store_true",
                      help="machine-readable output")
    jobs.set_defaults(func=_cmd_jobs)

    scen = sub.add_parser("scenarios", help="list the scenario registry")
    scen.add_argument("--list", action="store_true",
                      help="print the table (default)")
    scen.add_argument("--json", action="store_true",
                      help="print the registry as JSON")
    scen.set_defaults(func=_cmd_scenarios)

    scal = sub.add_parser("scaling", help="strong-scaling sweep (modeled)")
    scal.add_argument("--code", default="sph-flow")
    scal.add_argument("--test", default="square", choices=("square", "evrard"))
    scal.add_argument("--machine", default="piz-daint",
                      choices=("piz-daint", "marenostrum4"))
    scal.add_argument("--n", type=int, default=200_000)
    scal.add_argument("--steps", type=int, default=5)
    scal.add_argument("--cores", default="12,24,48,96,192,384")
    scal.set_defaults(func=_cmd_scaling)

    tables = sub.add_parser("tables", help="print the Table 1-4 matrices")
    tables.set_defaults(func=_cmd_tables)

    ledger = sub.add_parser("ledger", help="inspect the run-history ledger")
    ledger.add_argument("--path", default="tuning.db", metavar="DB",
                        help="ledger database file (default: tuning.db)")
    ledger.add_argument("--list", action="store_true",
                        help="print the run table (default)")
    ledger.add_argument("--show", default=None, metavar="RUN_ID",
                        help="print one run's full record")
    ledger.add_argument("--scenario", default=None,
                        help="filter --list by scenario name")
    ledger.add_argument("--limit", type=int, default=20,
                        help="max rows for --list (default 20)")
    ledger.add_argument("--json", action="store_true",
                        help="machine-readable output")
    ledger.set_defaults(func=_cmd_ledger)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
