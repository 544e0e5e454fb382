"""POP efficiency metrics (Section 5.2).

"Load Balance is computed as the ratio between average useful computation
time (across all processes) and maximum useful computation time (also
across all processes)" — the paper uses the POP CoE hierarchy:

    Global Efficiency    = Parallel Efficiency x Computation Scalability
    Parallel Efficiency  = Load Balance x Communication Efficiency
    Load Balance         = mean(useful) / max(useful)
    Communication Eff.   = max(useful) / runtime
    Computation Scal.    = total useful (reference) / total useful (scaled)

All metrics are functions of a :class:`~repro.profiling.trace.Tracer`;
Computation Scalability additionally needs the reference (smallest-scale)
run's total useful time.

Degenerate traces are NaN-safe: an empty trace or one with zero runtime
yields ``nan`` efficiencies instead of raising, so report pipelines can
always compute-then-filter (``PopMetrics.valid`` tells the two cases
apart).  The measured-span variant over merged driver + phase-thread
timelines lives in :func:`repro.observability.pop.pop_from_events`; the
one-line stats formatters live in :mod:`repro.observability.report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import State, Tracer

__all__ = [
    "PopMetrics",
    "compute_pop_metrics",
]


@dataclass(frozen=True)
class PopMetrics:
    """POP efficiency factors for one run (all in [0, 1] ideally)."""

    n_ranks: int
    runtime: float
    total_useful: float
    load_balance: float
    communication_efficiency: float
    parallel_efficiency: float
    computation_scalability: float
    global_efficiency: float

    @property
    def valid(self) -> bool:
        """True when every efficiency factor is a real number."""
        return all(
            math.isfinite(v)
            for v in (
                self.load_balance,
                self.communication_efficiency,
                self.parallel_efficiency,
                self.computation_scalability,
                self.global_efficiency,
            )
        )

    def row(self) -> str:
        """Tabular one-liner for benchmark reports."""
        return (
            f"{self.n_ranks:>6d}  LB={self.load_balance:5.3f}  "
            f"CommEff={self.communication_efficiency:5.3f}  "
            f"ParEff={self.parallel_efficiency:5.3f}  "
            f"CompScal={self.computation_scalability:5.3f}  "
            f"GlobalEff={self.global_efficiency:5.3f}"
        )


def compute_pop_metrics(
    tracer: Tracer,
    reference_useful_total: float | None = None,
    reference_ranks: int = 1,
) -> PopMetrics:
    """POP metrics of a trace.

    Parameters
    ----------
    reference_useful_total:
        Total useful time of the reference (base-scale) run.  When omitted
        Computation Scalability is 1 (the run is its own reference).
    reference_ranks:
        Unused in the ratio itself (total useful time already aggregates
        over ranks) but kept for report labelling symmetry.

    NaN-safe: empty traces and zero-duration traces return ``nan``
    efficiencies (``PopMetrics.valid`` is then ``False``) rather than
    raising.
    """
    ranks = tracer.ranks
    if not ranks:
        useful = np.zeros(0)
        runtime = 0.0
    else:
        useful = np.array(
            [tracer.time_in_state(r, State.USEFUL) for r in ranks]
        )
        runtime = tracer.runtime()
    max_useful = float(useful.max()) if useful.size else 0.0
    lb = float(useful.mean() / max_useful) if max_useful > 0.0 else math.nan
    comm_eff = max_useful / runtime if runtime > 0.0 else math.nan
    par_eff = lb * comm_eff
    total_useful = float(useful.sum()) if useful.size else 0.0
    if reference_useful_total is None:
        comp_scal = 1.0
    elif total_useful > 0.0:
        comp_scal = reference_useful_total / total_useful
    else:
        comp_scal = math.nan
    return PopMetrics(
        n_ranks=len(ranks),
        runtime=runtime,
        total_useful=total_useful,
        load_balance=lb,
        communication_efficiency=comm_eff,
        parallel_efficiency=par_eff,
        computation_scalability=comp_scal,
        global_efficiency=par_eff * comp_scal,
    )
