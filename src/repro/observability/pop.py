"""POP efficiency metrics (Section 5.2) of any trace, modeled or measured.

"Load Balance is computed as the ratio between average useful computation
time (across all processes) and maximum useful computation time (also
across all processes)" — the paper uses the POP CoE hierarchy:

    Global Efficiency    = Parallel Efficiency x Computation Scalability
    Parallel Efficiency  = Load Balance x Communication Efficiency
    Load Balance         = mean(useful) / max(useful)
    Communication Eff.   = max(useful) / runtime
    Computation Scal.    = total useful (reference) / total useful (scaled)

Row model: load balance is computed across ``(rank, thread)`` rows that
performed any useful work.  On the simulated cluster's rank-level traces
that is the per-rank definition the paper uses; on a ``workers=N`` run
the rows are the driver and each row slice of a fan-out.  Useful time is the *self*
time of ``USEFUL`` spans (:func:`~repro.observability.tracer.self_times`),
so a useful span nested in another is counted once.  ``State.STEP``
container spans never count as useful but do extend the runtime
envelope.

Degenerate traces are NaN-safe: an empty trace or one with zero runtime
yields ``nan`` efficiencies instead of raising, so report pipelines can
always compute-then-filter (``PopMetrics.valid`` tells the two cases
apart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from .tracer import State, TraceEvent, Tracer, self_times

__all__ = ["PopMetrics", "pop_from_events"]


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


def pop_from_events(
    source: Union[Tracer, Sequence[TraceEvent]],
    reference_useful_total: Optional[float] = None,
) -> PopMetrics:
    """POP efficiency hierarchy of a span list.

    Parameters
    ----------
    source:
        A tracer or bare event sequence.  Row-slice spans merged by the
        phase executor appear as their own rows, so a ``workers=N`` run
        yields an ``N + 1``-row load balance.
    reference_useful_total:
        Total useful seconds of the reference-scale run; when omitted the
        run is its own reference (computation scalability 1).

    Returns NaN efficiencies (never raises) for empty/zero-length input.
    """
    events = source.events if isinstance(source, Tracer) else source
    useful: Dict[Tuple[int, int], float] = {}
    t_min = math.inf
    t_max = -math.inf
    for e, own in zip(events, self_times(events)):
        t_min = min(t_min, e.start)
        t_max = max(t_max, e.end)
        if e.state is State.USEFUL:
            row = (e.rank, e.thread)
            useful[row] = useful.get(row, 0.0) + own
    runtime = (t_max - t_min) if t_max > t_min else 0.0
    n_rows = len(useful)
    total_useful = sum(useful.values())
    max_useful = max(useful.values(), default=0.0)
    lb = (total_useful / n_rows) / max_useful if max_useful > 0.0 else math.nan
    comm_eff = max_useful / runtime if runtime > 0.0 else math.nan
    par_eff = lb * comm_eff
    if reference_useful_total is None:
        comp_scal = 1.0
    elif total_useful > 0.0:
        comp_scal = reference_useful_total / total_useful
    else:
        comp_scal = math.nan
    return PopMetrics(
        n_ranks=n_rows,
        runtime=runtime,
        total_useful=total_useful,
        load_balance=lb,
        communication_efficiency=comm_eff,
        parallel_efficiency=par_eff,
        computation_scalability=comp_scal,
        global_efficiency=par_eff * comp_scal,
    )
