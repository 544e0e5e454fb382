"""Shared helpers for the benchmark suite.

Besides the Figure 1-3 scaling report formatters, this is where every
bench gets its host stamp: :func:`host_stamp` embeds the machine
fingerprint (and its short id) into each ``BENCH_*.json`` record so the
regression gates can refuse to compare numbers measured on different
machines — cross-host timing ratios are noise, not regressions.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.observability.ledger import fingerprint_id, host_fingerprint
from repro.model.scaling import ScalingSeries


def host_stamp() -> Dict[str, object]:
    """Machine-identity fields to merge into a bench JSON record.

    ``host_id`` is the stable short hash the gates compare; ``host`` the
    full fingerprint for humans diagnosing a refused comparison.
    """
    fp = host_fingerprint()
    return {"host": fp, "host_id": fingerprint_id(fp)}


def series_report(
    title: str,
    series_list: Sequence[ScalingSeries],
    paper_points: Dict[int, float],
) -> str:
    """Figure-style report: per-machine time/step series + paper anchors."""
    lines = [title, "=" * len(title)]
    for s in series_list:
        lines.append(f"\n{s.code} / {s.test} on {s.machine}:")
        lines.append(
            f"  {'cores':>6} {'t/step [s]':>12} {'speedup':>9} {'par.eff':>8} "
            f"{'LB':>6} {'p/core':>9}"
        )
        t0, c0 = s.points[0].time_per_step, s.points[0].cores
        for p in s.points:
            speedup = t0 / p.time_per_step
            eff = t0 * c0 / (p.time_per_step * p.cores)
            lines.append(
                f"  {p.cores:>6d} {p.time_per_step:>12.2f} {speedup:>9.2f} "
                f"{eff:>8.2f} {p.pop.load_balance:>6.3f} "
                f"{p.particles_per_core:>9.0f}"
            )
    if paper_points:
        lines.append("\npaper anchor values (Piz Daint):")
        ref = {p.cores: p.time_per_step for p in series_list[0].points}
        for cores, t_paper in sorted(paper_points.items()):
            ours = ref.get(cores)
            ratio = f"{ours / t_paper:5.2f}x" if ours else "   - "
            ours_s = f"{ours:8.2f}" if ours else "       -"
            lines.append(
                f"  {cores:>6d} cores: paper {t_paper:8.2f} s  "
                f"measured {ours_s} s  ratio {ratio}"
            )
    return "\n".join(lines)


def assert_paper_shape(
    series: ScalingSeries,
    paper_points: Dict[int, float],
    rel_band: float = 0.6,
) -> None:
    """The reproduction contract: monotone scaling that stalls, and
    endpoint agreement with the paper within a generous band."""
    t = series.times()
    assert np.all(np.diff(t) < 0), "time/step must fall with cores"
    # Strong scaling degrades: the last doubling gains less than the first.
    c = series.cores().astype(float)
    gain_first = t[0] / t[1] / (c[1] / c[0])
    gain_last = t[-2] / t[-1] / (c[-1] / c[-2])
    assert gain_last < gain_first + 1e-9, "no strong-scaling stall visible"
    table = {p.cores: p.time_per_step for p in series.points}
    for cores, t_paper in paper_points.items():
        if cores in table:
            ratio = table[cores] / t_paper
            assert (1 - rel_band) < ratio < 1 / (1 - rel_band), (
                f"{series.code}/{series.test} at {cores} cores: "
                f"measured {table[cores]:.2f}s vs paper {t_paper:.2f}s"
            )
