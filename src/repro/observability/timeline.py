"""ASCII rendering of a trace — the Figure 4 reproduction.

Figure 4 shows per-(rank, thread) rows over time, colored by state, with
the Algorithm-1 phases A-J annotated.  On a terminal the states become
characters:

    # useful (blue)    M MPI (orange)    s sync (red)
    f fork/join (yellow)    . idle (black)

and a header line marks where each phase letter begins.  Each time bin
shows the state that dominates it.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .tracer import State, TraceEvent, Tracer

__all__ = ["STATE_CHARS", "render_timeline"]

STATE_CHARS: Dict[State, str] = {
    State.USEFUL: "#",
    State.MPI: "M",
    State.SYNC: "s",
    State.FORK_JOIN: "f",
    State.IDLE: ".",
    State.RECOVERY: "!",
    State.STEP: " ",
}


def _bin_events(
    events: List[TraceEvent], t0: float, t1: float, width: int
) -> str:
    """Dominant-state character per time bin for one row of events."""
    if t1 <= t0:
        return " " * width
    edges = np.linspace(t0, t1, width + 1)
    # Accumulate per-bin occupancy per state.
    occupancy = {state: np.zeros(width) for state in State}
    for e in events:
        # STEP container spans overlap the exclusive states they wrap;
        # counting them would let the container dominate every bin.
        if e.duration <= 0.0 or e.state is State.STEP:
            continue
        lo = np.searchsorted(edges, e.start, side="right") - 1
        hi = np.searchsorted(edges, e.end, side="left")
        lo = max(lo, 0)
        hi = min(hi, width)
        for b in range(lo, hi):
            overlap = min(e.end, edges[b + 1]) - max(e.start, edges[b])
            if overlap > 0:
                occupancy[e.state][b] += overlap
    chars = []
    for b in range(width):
        best_state, best_val = None, 0.0
        for state in State:
            if occupancy[state][b] > best_val:
                best_state, best_val = state, occupancy[state][b]
        chars.append(STATE_CHARS[best_state] if best_state else " ")
    return "".join(chars)


def render_timeline(
    tracer: Tracer,
    width: int = 100,
    max_rows: int = 24,
    t0: float = 0.0,
    t1: float | None = None,
) -> str:
    """Render the trace as text (phases header + one line per row).

    ``max_rows`` caps the output for big runs; evenly-spaced rows are
    shown so both ends of the rank range stay visible (like zooming out
    in Paraver).
    """
    if t1 is None:
        t1 = tracer.runtime()
    rows = sorted({(e.rank, e.thread) for e in tracer.events})
    if not rows:
        return "(empty trace)"
    if len(rows) > max_rows:
        pick = np.unique(
            np.linspace(0, len(rows) - 1, max_rows).round().astype(int)
        )
        rows = [rows[i] for i in pick]

    # Phase header: letter at the bin where the phase first starts.
    header = [" "] * width
    seen = set()
    span = max(t1 - t0, 1e-300)
    for e in sorted(tracer.events, key=lambda e: e.start):
        if e.phase in seen or not e.phase:
            continue
        seen.add(e.phase)
        b = int((e.start - t0) / span * width)
        if 0 <= b < width and header[b] == " ":
            header[b] = e.phase[0]

    by_row: Dict[tuple, List[TraceEvent]] = {row: [] for row in rows}
    for e in tracer.events:
        key = (e.rank, e.thread)
        if key in by_row:
            by_row[key].append(e)

    label_w = max(len(f"r{r}t{t}") for r, t in rows)
    lines = [
        " " * (label_w + 2) + "".join(header),
        " " * (label_w + 2) + "-" * width,
    ]
    for row in rows:
        body = _bin_events(by_row[row], t0, t1, width)
        lines.append(f"r{row[0]}t{row[1]}".ljust(label_w) + "| " + body)
    legend = "  ".join(f"{c}={s.value}" for s, c in STATE_CHARS.items())
    lines.append("")
    lines.append(f"legend: {legend}")
    lines.append(f"span: [{t0:.4g}, {t1:.4g}] s")
    return "\n".join(lines)
