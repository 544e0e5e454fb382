"""Per-(code, test) absolute-time calibration.

"You are not expected to match absolute numbers" — but the paper prints
its y-axes, so the model is anchored to them: for each code and test the
average time per time-step at the smallest measured scale (12 cores = one
Piz Daint node) fixes the seconds-per-pair-equivalent constant kappa.
Everything else — the shape of the curves across core counts and machines
— comes from the model (real decomposition, halos, serial fractions,
rungs, network).

Anchor values read off Figures 1-3 (the top y-axis tick is the 12-core
point of each panel):

=========  =======  ==============
code       test     seconds @ 12c
=========  =======  ==============
SPHYNX     square   38.25   (Fig 1a)
SPHYNX     evrard   40.27   (Fig 1b)
ChaNGa     square   738.0   (Fig 2a)
ChaNGa     evrard   30.38   (Fig 2b)
SPH-flow   square   31.00   (Fig 3)
SPH-EXA    square   20.0    (design target: no anchor in the paper —
SPH-EXA    evrard   22.0     set to "faster than the best parent")
=========  =======  ==============
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.config import SimulationConfig
from .cluster import ClusterModel
from .codes import code_row
from .machine import PIZ_DAINT, MachineSpec
from .workloads import Workload

__all__ = ["PAPER_ANCHORS_12CORES", "calibrate_kappa"]

#: (code label, test) -> measured avg seconds per step at 12 Piz Daint cores.
PAPER_ANCHORS_12CORES: Dict[Tuple[str, str], float] = {
    ("SPHYNX", "square"): 38.25,
    ("SPHYNX", "evrard"): 40.27,
    ("ChaNGa", "square"): 738.0,
    ("ChaNGa", "evrard"): 30.38,
    ("SPH-flow", "square"): 31.00,
    ("SPH-EXA", "square"): 20.0,
    ("SPH-EXA", "evrard"): 22.0,
}

_CACHE: Dict[tuple, float] = {}


def calibrate_kappa(
    preset: SimulationConfig,
    workload: Workload,
    anchor_machine: MachineSpec = PIZ_DAINT,
    anchor_cores: int = 12,
) -> float:
    """Seconds per pair-equivalent matching the paper's 12-core anchor.

    Runs the model once with kappa = 1 at the anchor scale; the anchor
    time divided by the resulting model time is kappa.  Cached per
    (preset, code row, test, n, anchor) because the 12-core plan
    (decomposition + halo of the full particle set) is the expensive part.
    """
    anchor = PAPER_ANCHORS_12CORES.get((preset.label, workload.name))
    if anchor is None:
        raise ValueError(
            f"no paper anchor for ({preset.label!r}, {workload.name!r}); "
            f"known: {sorted(PAPER_ANCHORS_12CORES)}"
        )
    code = code_row(preset.label)
    key = (preset, code, workload.name, workload.n, anchor_machine, anchor_cores)
    if key in _CACHE:
        return _CACHE[key]
    # Step time is affine in kappa: T(kappa) = kappa * W + C, where C is
    # the (kappa-independent) communication time.  Two probe runs solve it
    # exactly, so the anchor is matched to machine precision.
    def probe(kappa: float) -> float:
        model = ClusterModel(
            workload=workload,
            preset=preset,
            machine=anchor_machine,
            n_cores=anchor_cores,
            kappa=kappa,
            code=code,
        )
        return model.average_step_time(n_steps=1)

    t1 = probe(1.0)
    t0 = probe(1e-300)  # pure communication
    work = t1 - t0
    if work <= 0.0:
        raise RuntimeError("calibration run produced non-positive work time")
    kappa = (anchor - t0) / work
    if kappa <= 0.0:
        raise RuntimeError(
            f"anchor {anchor}s is below the modeled communication floor {t0}s"
        )
    _CACHE[key] = kappa
    return kappa
