#!/usr/bin/env python
"""Regenerate the committed scenario golden masters.

Runs every registry entry (or a named subset) at its CI size for its
golden step count and rewrites ``tests/golden/scenario_<name>.json``,
and the square patch's test run for 5 steps into
``tests/golden/square_patch_5step.json`` (``tests/test_golden_master.py``).
Deterministic: same platform + same code ⇒ identical files.

Use only after an *intentional* physics change, and commit the diff
together with the change that caused it:

    PYTHONPATH=src python tools/regen_goldens.py           # all scenarios
    PYTHONPATH=src python tools/regen_goldens.py sod noh   # a subset
    PYTHONPATH=src python tools/regen_goldens.py --check   # verify only

``--check`` exits 1 if any committed golden differs from a fresh run —
the same comparison the conformance suite applies, handy before pushing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.scenarios import (  # noqa: E402  (path bootstrap above)
    all_scenarios,
    compare_records,
    get_scenario,
    golden_path,
    load_golden,
    run_scenario_record,
    write_golden,
)


#: Goldens besides a scenario's own: ``(file name, steps)`` of longer
#: runs of its golden configuration.
EXTRA = {"square-patch": [("square_patch_5step.json", 5)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        help="names to regenerate (default: the whole registry)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed files instead of rewriting",
    )
    args = parser.parse_args(argv)

    scenarios = (
        [get_scenario(name) for name in args.scenarios]
        if args.scenarios
        else all_scenarios()
    )
    targets = [(s, golden_path(s.name), None) for s in scenarios]
    targets += [
        (s, golden_path(s.name).with_name(name), steps)
        for s in scenarios
        for name, steps in EXTRA.get(s.name, ())
    ]

    failures = 0
    for scenario, path, steps in targets:
        record = run_scenario_record(scenario, n_steps=steps)
        if args.check:
            if not path.exists():
                print(f"{path.name}: MISSING {path}")
                failures += 1
                continue
            diffs = compare_records(record, load_golden(path))
            if diffs:
                print(f"{path.name}: MISMATCH")
                for d in diffs:
                    print(f"  {d}")
                failures += 1
            else:
                print(f"{path.name}: ok")
        else:
            write_golden(record, path)
            print(
                f"{path.name}: wrote {path} "
                f"({record['n_particles']} particles, "
                f"{record['n_steps']} steps)"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
