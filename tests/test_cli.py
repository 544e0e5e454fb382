"""CLI surface: the Section-2 "handful of command line arguments"."""

import pytest

from repro.__main__ import build_parser, main


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 4" in out
    assert "SPHYNX" in out and "SPH-EXA" in out


def test_run_squarepatch(capsys):
    rc = main(["run", "squarepatch", "--side", "8", "--layers", "4",
               "--steps", "1", "--neighbors", "25", "--preset", "sph-flow"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "squarepatch: 256 particles" in out
    assert "drift:" in out


def test_run_evrard(capsys):
    rc = main(["run", "evrard", "--n", "500", "--steps", "1",
               "--neighbors", "25", "--preset", "sphynx"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "evrard" in out and "E_pot=" in out


def test_scaling_command(capsys):
    rc = main(["scaling", "--code", "sph-flow", "--test", "square",
               "--n", "50000", "--steps", "1", "--cores", "12,48"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cores" in out and "LB=" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# --- scenario registry surface ------------------------------------------


def test_run_registry_scenario(capsys):
    rc = main(["run", "sod", "--n", "60", "--steps", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    # n_target is a target: the low-density side is floored at 10
    # particles, so just require the standard report shape.
    assert "sod: " in out and " particles" in out
    assert "drift:" in out


def test_run_canonical_square_patch_name(capsys):
    rc = main(["run", "square-patch", "--side", "8", "--layers", "4",
               "--steps", "1"])
    assert rc == 0
    assert "square-patch: 256 particles" in capsys.readouterr().out


def test_run_unknown_scenario_exits_2(capsys):
    rc = main(["run", "does-not-exist", "--steps", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'does-not-exist'" in err
    assert "sedov" in err  # the message lists the known names


def test_run_size_flag_mismatch_exits_2(capsys):
    assert main(["run", "square-patch", "--n", "100"]) == 2
    assert "--side/--layers" in capsys.readouterr().err
    assert main(["run", "sod", "--side", "8"]) == 2
    assert "only apply to square-patch" in capsys.readouterr().err


def test_run_json_summary(capsys):
    import json

    rc = main(["run", "noh", "--n", "60", "--steps", "2", "--json"])
    assert rc == 0
    out, err = capsys.readouterr()
    summary = json.loads(out)  # the document alone on stdout
    assert "step 2:" in err and "drift:" in err  # the log moved to stderr
    assert summary["scenario"] == "noh"
    assert summary["n_particles"] == 60
    assert summary["n_steps"] == 2
    assert summary["final_time"] > 0.0
    assert set(summary["drift"]) == {"mass", "momentum", "energy"}
    # Verlet-cache counters: every run has them.
    assert summary["neighbor_cache"]["builds"] >= 1
    assert summary["neighbor_cache"]["adaptations"] == 3
    # The h iteration: one adaptation per rate
    # evaluation (the first step's two, then one), count sweeps per
    # particle per adaptation and the share ending within the tolerance.
    h_iteration = summary["h_iteration"]
    assert h_iteration["adaptations"] == 3
    assert 1.0 <= h_iteration["mean_sweeps"] <= 10.0
    assert 0.0 <= h_iteration["within_tolerance_share"] <= 1.0


def test_run_json_reports_gravity_work_per_particle(capsys):
    import json

    rc = main(["run", "evrard", "--n", "800", "--steps", "1", "--json"])
    assert rc == 0
    out, err = capsys.readouterr()
    summary = json.loads(out)
    gravity = summary["gravity"]
    n = summary["n_particles"]
    assert gravity["p2p_per_particle"] == gravity["p2p_per_step"] / n > 0
    assert gravity["m2p_per_particle"] == gravity["m2p_per_step"] / n > 0
    assert "per particle" in err  # the one-line gravity report on stderr


def test_scenarios_list(capsys):
    from repro.scenarios import scenario_names

    rc = main(["scenarios", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(scenario_names()) >= 8
    for name in scenario_names():
        assert name in out
    assert "MISSING" not in out  # every entry ships its golden master


def test_scenarios_json_schema(capsys):
    import json

    rc = main(["scenarios", "--json"])
    assert rc == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) >= 8
    names = {e["name"] for e in entries}
    assert {"square-patch", "evrard", "sedov", "sod", "noh", "gresho",
            "kelvin-helmholtz", "wind-cloud"} <= names
    for entry in entries:
        assert set(entry) == {"name", "description", "params", "test_params",
                              "invariants", "analytic_gate", "golden"}
        assert entry["golden"] is True
    gated = {e["name"]: e["analytic_gate"] for e in entries
             if e["analytic_gate"] is not None}
    assert {"sedov", "sod", "noh", "gresho"} <= set(gated)
    for gate in gated.values():
        assert set(gate) == {"fields", "tolerances", "n_steps"}


# --- self-healing guard / failure UX ------------------------------------


def test_run_guard_heals_injected_fault(capsys):
    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "4", "--guard", "--chaos", "nan:rho@2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "guard:" in out and "failures=1" in out
    assert "healed[retry=1]" in out


def test_run_guard_json_includes_guard_and_sdc(capsys):
    import json

    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "3", "--guard", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    summary = json.loads(out)  # the document alone on stdout
    assert summary["guard"]["failures"] == 0
    assert summary["guard"]["checks"] == 3
    # The guard's health check is the one per-step detector.
    assert "sdc" not in summary


def test_run_terminal_failure_exits_1_with_post_mortem(capsys):
    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "4", "--guard", "--chaos", "nan:rho@2!"])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err
    # One readable paragraph, not a traceback.
    assert "Traceback" not in err and "Traceback" not in captured.out
    assert "degradation" in err
    assert "step 2" in err
    assert "retry" in err and "checkpoint-restore" in err


def test_run_terminal_failure_json_record(capsys):
    import json

    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "4", "--guard", "--chaos", "nan:rho@2!", "--json"])
    assert rc == 1
    out = capsys.readouterr().out
    record = json.loads(out)  # the document alone on stdout
    assert record["error"] == "unrecoverable-step"
    pm = record["post_mortem"]
    assert pm["step"] == 2
    assert "checkpoint-restore" in pm["rungs_tried"]
    assert record["guard"]["terminal"] is True
    assert record["scenario"] == "square-patch"


def test_run_unguarded_failure_exits_1_without_traceback(capsys):
    # Without the guard, a persistent NaN aborts via the dt check; the
    # CLI must still die with a paragraph, not a stack trace.
    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "8", "--chaos", "nan:rho@2!"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "--guard" in captured.err  # the hint to enable self-healing


def test_run_bad_chaos_spec_exits_2(capsys):
    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "1", "--chaos", "frobnicate"])
    assert rc == 2
    assert "fault spec" in capsys.readouterr().err


def test_run_guard_with_checkpoint_dir(tmp_path, capsys):
    ckpt_dir = str(tmp_path / "ckpts")
    rc = main(["run", "square-patch", "--side", "6", "--layers", "4",
               "--steps", "4", "--guard", "--checkpoint-dir", ckpt_dir,
               "--chaos", "nan:rho@2!"])
    assert rc == 1
    err = capsys.readouterr().err
    # The ladder exhausted (persistent fault) but left a restart file.
    assert "last-resort checkpoint" in err
    from repro.resilience.checkpoint import find_latest_checkpoint

    assert find_latest_checkpoint(ckpt_dir) is not None


def test_rerun_with_checkpoint_dir_ends_at_the_spec_step_count(tmp_path, capsys):
    """A second ``repro run`` with the same ``--steps`` and
    ``--checkpoint-dir`` resumes from the step-10 checkpoint and stops at
    step 12: the same clock and drift as the first run, not 12 more
    steps."""
    import json

    argv = ["run", "sod", "--n", "100", "--steps", "12",
            "--checkpoint-dir", str(tmp_path / "ckpts"), "--json"]
    summaries = []
    for _ in range(2):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        summaries.append((json.loads(out), err))
    (first, first_log), (second, second_log) = summaries
    assert "step 1:" in first_log and "step 12:" in first_log
    assert "step 10:" not in second_log
    assert "step 11:" in second_log and "step 12:" in second_log
    assert "step 13:" not in second_log
    assert second["final_time"] == first["final_time"]
    assert second["drift"] == first["drift"]


# --- run ledger surface ------------------------------------------------


def test_ledger_list_and_show(tmp_path, capsys):
    db = str(tmp_path / "ledger.db")
    assert main(["run", "sod", "--n", "80", "--steps", "2",
                 "--ledger", db]) == 0
    capsys.readouterr()

    assert main(["ledger", "--path", db, "--list"]) == 0
    out = capsys.readouterr().out
    assert "sod" in out and "run-id" in out

    import json as _json

    assert main(["ledger", "--path", db, "--json"]) == 0
    rows = _json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["scenario"] == "sod"

    run_id = rows[0]["run_id"]
    assert main(["ledger", "--path", db, "--show", run_id]) == 0
    out = capsys.readouterr().out
    assert run_id in out and "knobs:" in out


def test_ledger_unknown_run_exits_2(tmp_path, capsys):
    db = str(tmp_path / "ledger.db")
    assert main(["run", "sod", "--n", "80", "--steps", "1",
                 "--ledger", db]) == 0
    capsys.readouterr()
    rc = main(["ledger", "--path", db, "--show", "sod-ffffffff"])
    assert rc == 2
    assert "unknown run id" in capsys.readouterr().err


def test_ledger_missing_db_exits_2(tmp_path, capsys):
    rc = main(["ledger", "--path", str(tmp_path / "absent.db")])
    assert rc == 2
    assert "no ledger" in capsys.readouterr().err


# --- the service commands: one spec-parsing path for run and submit ------


def test_run_and_submit_share_the_spec_path():
    """Identical flags parse to identical JobSpecs (same cache line)."""
    from repro.cli import _spec_from_args

    parser = build_parser()
    flags = ["sod", "--n", "80", "--steps", "2", "--backend", "numpy",
             "--guard"]
    run_spec, _ = _spec_from_args(parser.parse_args(["run", *flags]))
    submit_spec, _ = _spec_from_args(
        parser.parse_args(["submit", *flags, "--socket", "/tmp/x.sock"])
    )
    assert run_spec == submit_spec
    assert (run_spec.content_hash(code_version="pinned")
            == submit_spec.content_hash(code_version="pinned"))


def test_submit_unknown_scenario_exits_2(capsys):
    rc = main(["submit", "nosuch", "--socket", "/tmp/absent.sock"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_submit_malformed_exec_knob_exits_2(capsys):
    """``--backend`` is the one execution knob the CLI spells; past
    argparse's ``choices`` the same ``ExecConfig`` rule answers."""
    with pytest.raises(SystemExit) as exc:
        main(["submit", "sod", "--backend", "numba", "--socket", "/tmp/x.sock"])
    assert exc.value.code == 2
    args = build_parser().parse_args(
        ["submit", "sod", "--socket", "/tmp/absent.sock"]
    )
    args.backend = "numba"
    assert args.func(args) == 2
    assert "unknown backend 'numba'" in capsys.readouterr().err


def test_submit_bad_size_flag_exits_2(capsys):
    rc = main(["submit", "sod", "--side", "4",
               "--socket", "/tmp/absent.sock"])
    assert rc == 2
    assert "--side/--layers" in capsys.readouterr().err


def test_submit_unreachable_server_exits_1(tmp_path, capsys):
    rc = main(["submit", "sod", "--steps", "1",
               "--socket", str(tmp_path / "absent.sock")])
    assert rc == 1
    assert "cannot reach server" in capsys.readouterr().err


def test_serve_refuses_existing_socket_path(tmp_path, capsys):
    existing = tmp_path / "taken.sock"
    existing.touch()
    rc = main(["serve", "--socket", str(existing)])
    assert rc == 2
    assert "already exists" in capsys.readouterr().err


def test_serve_submit_jobs_end_to_end(tmp_path, capsys):
    """A live server: run once, second submit is a cache hit."""
    import threading

    from repro.cli import _cmd_serve
    from repro.service.server import client_request

    sock = str(tmp_path / "svc.sock")
    parser = build_parser()
    serve_args = parser.parse_args(
        ["serve", "--socket", sock, "--isolation", "inline",
         "--workers", "2", "--store", str(tmp_path / "results.db")]
    )
    server = threading.Thread(
        target=_cmd_serve, args=(serve_args,), daemon=True
    )
    server.start()
    deadline = 50
    import os
    import time
    while not os.path.exists(sock) and deadline:
        time.sleep(0.1)
        deadline -= 1
    assert os.path.exists(sock), "server socket never appeared"
    capsys.readouterr()

    flags = ["submit", "sod", "--n", "60", "--steps", "2",
             "--socket", sock]
    try:
        assert main(flags) == 0
        first = capsys.readouterr().out
        assert "done (run):" in first

        assert main(flags) == 0
        second = capsys.readouterr().out
        assert "done (cache):" in second
        # Same digest served from the store.
        digest = first.splitlines()[-1].split("digest ")[1]
        assert digest in second

        # --json: the outcome alone on stdout, the log on stderr.
        import json

        assert main(flags + ["--json"]) == 0
        third = capsys.readouterr()
        assert json.loads(third.out)["result_digest"].startswith(digest)
        assert "done (cache):" in third.err

        assert main(["jobs", "--socket", sock]) == 0
        table = capsys.readouterr().out
        assert "cache" in table and "run" in table

        assert main(["jobs", "--socket", sock, "--stats"]) == 0
        stats = capsys.readouterr().out
        assert "cache_hits: 2" in stats

        # A malformed execution knob never reaches the queue, nor does a
        # count sent as a string.
        for workers in (-1, "2"):
            reply = client_request(sock, {
                "op": "submit", "spec": {"scenario": "sod", "workers": workers},
            })
            assert reply["ok"] is False
            assert reply["error"].startswith("bad spec: workers")
        assert client_request(sock, {"op": "stats"})["stats"]["failed"] == 0
    finally:
        client_request(sock, {"op": "shutdown"})
        server.join(timeout=10)
