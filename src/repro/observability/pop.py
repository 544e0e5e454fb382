"""POP efficiency metrics from *measured* spans (Section 5.2, for real).

:func:`repro.profiling.metrics.compute_pop_metrics` reads per-rank state
sums off a modeled-cluster trace.  This module computes the same POP
hierarchy from any span list — including the merged driver +
phase-thread timelines the observability layer records on real
executions — and is NaN-safe: an empty or zero-duration trace yields ``nan`` efficiencies
instead of raising, so report pipelines never trip over a run that was
too short to measure.

Row model: load balance is computed across ``(rank, thread)`` rows that
performed any useful work (for the simulated cluster that degenerates to
the per-rank definition the paper uses; for a ``workers=N`` run the rows
are the driver and each thread lane).  ``State.STEP`` container spans
never count as useful but do extend the runtime envelope.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple, Union

from ..profiling.metrics import PopMetrics
from ..profiling.trace import State, TraceEvent, Tracer

__all__ = ["pop_from_events"]


def pop_from_events(
    source: Union[Tracer, Sequence[TraceEvent]],
    reference_useful_total: Optional[float] = None,
) -> PopMetrics:
    """POP efficiency hierarchy of a measured (or modeled) span list.

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
    for e in events:
        t_min = min(t_min, e.start)
        t_max = max(t_max, e.end)
        if e.state is State.USEFUL:
            row = (e.rank, e.thread)
            useful[row] = useful.get(row, 0.0) + e.duration
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
