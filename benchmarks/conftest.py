"""Shared benchmark fixtures.

The figure benches decompose the paper's full 10^6-particle workloads;
building those geometries once per session keeps the suite fast.  Set
``REPRO_BENCH_N`` to shrink the particle count for smoke runs (the curve
*shapes* persist down to ~1e5).

Every bench prints the rows/series the paper reports; the text also lands
in ``benchmarks/results/*.txt`` so the artifacts survive pytest's capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.model.workloads import build_workload

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "1000000"))


@pytest.fixture(scope="session")
def square_workload():
    return build_workload("square", BENCH_N)


@pytest.fixture(scope="session")
def evrard_workload():
    return build_workload("evrard", BENCH_N)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def report(results_dir):
    def _report(name: str, text: str) -> None:
        emit(results_dir, name, text)

    return _report
