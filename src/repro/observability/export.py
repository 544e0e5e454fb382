"""Trace exporters: Chrome ``trace_event`` JSON and JSONL.

The Chrome format (one ``"X"`` complete event per span, microsecond
timestamps) loads directly in Perfetto or ``chrome://tracing`` — the
modern stand-in for the paper's Paraver screenshots.  Rows map as
``pid = rank`` and ``tid = thread`` (thread 0 is the driver, thread
``k + 1`` is row slice ``k`` of a fan-out), with metadata events naming
them.

The JSONL format is one flat JSON object per span — what the benchmark
harness and ad-hoc pandas analysis consume.

Both exporters accept a tracer or a bare event list, so simulated-cluster
traces and measured driver/thread traces go through the same pipeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from .tracer import TraceEvent, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace", "to_jsonl", "write_jsonl"]

_US = 1e6  # seconds -> microseconds (the trace_event unit)


def _events(source: Union[Tracer, Sequence[TraceEvent]]) -> Sequence[TraceEvent]:
    return source.events if isinstance(source, Tracer) else source


def _row_name(thread: int) -> str:
    return "driver" if thread == 0 else f"worker {thread - 1}"


def to_chrome_trace(
    source: Union[Tracer, Sequence[TraceEvent]],
) -> Dict[str, object]:
    """Chrome ``trace_event`` document (JSON-serializable dict)."""
    events = _events(source)
    trace_events: List[Dict[str, object]] = []
    seen_rows = set()
    for e in events:
        row = (e.rank, e.thread)
        if row not in seen_rows:
            seen_rows.add(row)
            if e.thread == 0:
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": e.rank,
                        "tid": 0,
                        "args": {"name": f"rank {e.rank}"},
                    }
                )
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": e.rank,
                    "tid": e.thread,
                    "args": {"name": _row_name(e.thread)},
                }
            )
        trace_events.append(
            {
                "name": e.label or e.phase,
                "cat": e.state.value,
                "ph": "X",
                "ts": e.start * _US,
                "dur": e.duration * _US,
                "pid": e.rank,
                "tid": e.thread,
                "args": {"phase": e.phase, "step": e.step, "depth": e.depth},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], source: Union[Tracer, Sequence[TraceEvent]]
) -> Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(source)))
    return path


def to_jsonl(source: Union[Tracer, Sequence[TraceEvent]]) -> Iterable[str]:
    """One flat JSON object per span (generator of lines, no newlines)."""
    for e in _events(source):
        yield json.dumps(
            {
                "rank": e.rank,
                "thread": e.thread,
                "phase": e.phase,
                "state": e.state.value,
                "start": e.start,
                "duration": e.duration,
                "step": e.step,
                "depth": e.depth,
                "label": e.label,
            }
        )


def write_jsonl(
    path: Union[str, Path], source: Union[Tracer, Sequence[TraceEvent]]
) -> Path:
    """Write :func:`to_jsonl` lines to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for line in to_jsonl(source):
            f.write(line + "\n")
    return path
