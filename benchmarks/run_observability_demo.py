"""Traced square-patch demo: run a few steps, export the merged timeline.

The end-to-end exercise of the observability subsystem that CI's
``observability`` job drives: a real :class:`~repro.core.simulation
.Simulation` (optionally on phase threads) runs with span tracing on,
exports the merged driver + thread timeline as Chrome ``trace_event``
JSON and JSONL, and prints the consolidated :meth:`Simulation.report`
summary.  The exported JSON is then schema-gated by
``check_trace_schema.py``.

    PYTHONPATH=src python benchmarks/run_observability_demo.py \
        --steps 3 --side 12 --workers 2 --out benchmarks/results
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--side", type=int, default=12, help="patch side")
    parser.add_argument("--layers", type=int, default=6)
    parser.add_argument("--workers", type=int, default=0, help="0 = serial")
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/results"),
        help="directory for trace.json / trace.jsonl",
    )
    args = parser.parse_args(argv)

    from repro.core.config import ExecConfig, RunConfig, SimulationConfig
    from repro.core.simulation import Simulation
    from repro.ics.square_patch import SquarePatchConfig, make_square_patch
    from repro.observability import ObservabilityConfig
    from repro.timestepping.steppers import TimestepParams

    args.out.mkdir(parents=True, exist_ok=True)
    chrome = args.out / "trace.json"
    jsonl = args.out / "trace.jsonl"

    particles, box, eos = make_square_patch(
        SquarePatchConfig(side=args.side, layers=args.layers)
    )
    config = SimulationConfig().with_(
        n_neighbors=30,
        timestep_params=TimestepParams(use_energy_criterion=False),
    )
    run_config = RunConfig(
        exec=ExecConfig(workers=args.workers),
        observability=ObservabilityConfig(
            chrome_trace_path=str(chrome), jsonl_path=str(jsonl)
        ),
    )
    with Simulation(
        particles, box, eos, config=config, run_config=run_config
    ) as sim:
        sim.run(n_steps=args.steps)
        report = sim.report()

    print(report.summary())
    print(f"spans recorded : {len(sim.tracer.events)}")
    print(f"chrome trace   : {chrome}")
    print(f"jsonl spans    : {jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
