#!/usr/bin/env python3
"""Compare two ``BENCH_e2e.json`` records: ``compare.py BASE.json CHANGE.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio CHANGE/BASE, the bound the benchmark fixed for the
metric, and a verdict —

``ok``          the change's median is not worse than the base's by more
                than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread (distance between the quartiles over
                the median) of either side is wider than the bound, and
                the two sets of runs overlap — the comparison cannot tell.

Then the per-layer counts that must repeat exactly between two runs of
one commit, and every per-layer number side by side.  Records from
different hosts (different host fingerprints) are refused.

Exit code: 0 no regression, 1 at least one ``regressed`` row, 2 refused.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

#: Per-layer counts that two runs of the same commit must reproduce exactly.
EXACT_COUNTS = (
    "tree.octree.walk.calls",
    "tree.octree.walk.calls_cold_step",
    "tree.neighborlist.cache.builds",
    "pairs_per_step",
    "gravity.barnes_hut.m2p_per_step",
    "service.manager.executed",
    "service.manager.cache_hits",
)


def verdict(base: Dict[str, Any], change: Dict[str, Any], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / base["median"]
    a = [sign * v for v in base["values"]]
    b = [sign * v for v in change["values"]]
    noisy = max(base.get("spread", 0.0), change.get("spread", 0.0)) > bound
    if noisy and not (max(b) < min(a) or min(b) > max(a)):
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _iqr(summary: Dict[str, Any]) -> str:
    if "q1" not in summary:
        return f"{summary['median']:.4g}"
    return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"


def compare(base: Dict[str, Any], change: Dict[str, Any]) -> int:
    if base["host"]["host_id"] != change["host"]["host_id"]:
        print(
            "refusing to compare records from different hosts: "
            f"{base['host']['host_id']} vs {change['host']['host_id']}",
            file=sys.stderr,
        )
        return 2
    pairs = [
        (name, entry, change["workloads"][name])
        for name, entry in base["workloads"].items()
        if name in change["workloads"]
    ]
    regressed = 0
    print(f"{'workload':<15} {'metric':<15} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change/base':>11} {'bound':>6}  verdict")
    for name, entry, other in pairs:
        for metric in base["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            word = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            print(f"{name:<15} {metric['name']:<15} {_iqr(a):<30} {_iqr(b):<30} "
                  f"{b['median'] / a['median']:>11.4f} {metric['bound']:>6.2f}  {word}")
        print(f"{name:<15} {'failed_frac':<15} {entry['failed_frac']:<30.4g} "
              f"{other['failed_frac']:<30.4g}")

    print("\ncounts that repeat exactly on one commit:")
    for name, entry, other in pairs:
        for key in EXACT_COUNTS:
            a, b = entry["per_layer"][key], other["per_layer"][key]
            if a == 0 and b == 0:
                continue
            print(f"  {name:<15} {key:<36} {a:>14.6g} {b:>14.6g}  "
                  f"{'same' if a == b else 'DIFFERS'}")

    print("\nper-layer (base, change, change/base):")
    for name, entry, other in pairs:
        for key, a in entry["per_layer"].items():
            b = other["per_layer"].get(key, 0.0)
            if a == 0 and b == 0:
                continue
            ratio = f"{b / a:.3f}" if a else "-"
            print(f"  {name:<15} {key:<46} {a:>14.6g} {b:>14.6g} {ratio:>8}")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    return compare(*records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
