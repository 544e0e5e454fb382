"""Table 4 — the mini-app's computer-science outlook.

Executes the full Table-4 feature set: ORB + both SFC decompositions,
DLB with self-scheduling (all chunking schemes), optimal-interval and
two-level checkpointing, and the silent-data-corruption detectors against
an actual bit-flip campaign.  The benchmark target runs the SDC
detect-inject loop.
"""

import numpy as np

from repro.core.feature_tables import table4_miniapp_cs_features
from repro.domain.decomposition import decompose
from repro.resilience.chaos import NumericalFault
from repro.resilience.interval import TwoLevelConfig, two_level_intervals, young_interval
from repro.resilience.sdc import RangeDetector
from repro.scheduling.selfsched import SCHEMES, simulate_self_scheduling
from repro.tree.box import Box
from repro.core.particles import ParticleSystem


def _sdc_campaign(n_trials: int = 40) -> tuple[float, float]:
    """Detection recall of the two detector families in their regimes.

    Range detectors exist for the large excursions a set top-exponent bit
    produces (in bounded fields); checksums cover *every* flip in data
    that must not change across a window.  Returns (range recall on
    excursion flips, checksum recall on arbitrary flips).
    """
    from repro.resilience.sdc import ChecksumDetector

    rng = np.random.default_rng(3)
    range_hits = 0
    crc_hits = 0
    for _ in range(n_trials):
        p = ParticleSystem(
            x=rng.random((200, 3)), v=rng.normal(size=(200, 3)),
            m=np.full(200, 1e-3), h=np.full(200, 0.1),
        )
        det = RangeDetector(v_max=1e3, h_max=1e3, u_max=1e3)
        field = ["v", "h"][int(rng.integers(2))]  # ceiling-guarded fields
        index = int(rng.integers(getattr(p, field).size))
        NumericalFault(
            step=0, array=field, kind="bitflip", index=index, bit=62
        ).inject(p)
        if det.check(p):
            range_hits += 1
        crc = ChecksumDetector()
        crc.snapshot("m", p.m)
        bit = int(rng.integers(64))
        index = int(rng.integers(p.m.size))
        NumericalFault(
            step=0, array="m", kind="bitflip", index=index, bit=bit
        ).inject(p)
        if crc.verify("m", p.m):
            crc_hits += 1
    return range_hits / n_trials, crc_hits / n_trials


def test_table4_miniapp_cs(benchmark, report):
    table = table4_miniapp_cs_features()
    for required in (
        "Orthogonal Recursive Bisection, Space Filling Curves",
        "DLB with self-scheduling",
        "Optimal interval, Multilevel",
        "Silent data corruption detectors",
        "64-bit",
    ):
        assert required in table, f"Table 4 entry missing: {required}"
    report("table4_miniapp_cs", table)

    rng = np.random.default_rng(4)
    x = rng.random((50_000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    for method in ("orb", "sfc-morton", "sfc-hilbert"):
        assert decompose(method, x, 32, box).imbalance() < 1.05

    # DLB with self-scheduling: all schemes run and balance skewed work.
    times = np.concatenate([np.full(500, 5.0), np.full(500, 1.0)])
    for scheme in SCHEMES:
        res = simulate_self_scheduling(times, 8, scheme)
        assert res.busy.sum() > 0

    # Optimal interval + multilevel.
    assert young_interval(10.0, 3600.0) > 0
    w_fast, w_slow = two_level_intervals(
        TwoLevelConfig(cost_fast=2.0, cost_slow=30.0, mtbf=3600.0)
    )
    assert w_fast < w_slow

    range_recall, crc_recall = benchmark(_sdc_campaign)
    assert range_recall > 0.9  # excursion flips in bounded fields
    assert crc_recall == 1.0  # checksums catch every flip in their window
