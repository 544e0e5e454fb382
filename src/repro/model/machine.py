"""Machine models of the paper's two test platforms (Section 5.2).

* **Piz Daint** (hybrid partition): Cray XC50 nodes with one 12-core
  Intel E5-2690 v3 (Haswell) — the study used 12 cores/node — on an
  Aries dragonfly fabric.
* **MareNostrum 4**: Lenovo nodes with two 24-core Xeon Platinum 8160
  (Skylake), 48 cores/node, on 100 Gb/s Intel Omni-Path in a full
  fat-tree.

The numbers below are public figures for these interconnects/CPUs; the
per-code absolute time scale is calibrated separately (see
:mod:`repro.model.calibration`), so only the *ratios* — cores per node,
latency vs bandwidth, relative core speed — shape the simulated curves,
which is exactly the information the paper's figures encode.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkSpec", "MachineSpec", "PIZ_DAINT", "MARENOSTRUM4", "MACHINES"]


@dataclass(frozen=True)
class NetworkSpec:
    """Analytic interconnect model: ``t(msg) = latency + bytes/bandwidth``."""

    name: str
    latency: float  # seconds per message (MPI short-message latency)
    bandwidth: float  # bytes/second per NIC direction
    topology: str  # "dragonfly" | "fat-tree"

    def transfer_time(self, nbytes: float, n_messages: int = 1) -> float:
        """Time to move ``nbytes`` in ``n_messages`` point-to-point sends."""
        if nbytes < 0 or n_messages < 0:
            raise ValueError("nbytes and n_messages must be non-negative")
        return n_messages * self.latency + nbytes / self.bandwidth

    def collective_time(self, n_ranks: int, nbytes: float = 8.0) -> float:
        """Log-tree collective (allreduce/bcast) over ``n_ranks``."""
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if n_ranks == 1:
            return 0.0
        import math

        rounds = math.ceil(math.log2(n_ranks))
        return 2.0 * rounds * (self.latency + nbytes / self.bandwidth)


@dataclass(frozen=True)
class MachineSpec:
    """Compute-node and fabric description of one platform."""

    name: str
    cores_per_node: int
    #: Relative per-core throughput (Piz Daint Haswell == 1.0).
    core_speed: float
    network: NetworkSpec
    max_nodes: int

    def nodes_for_cores(self, cores: int) -> int:
        """Nodes needed for ``cores`` at full-node allocation."""
        if cores < 1:
            raise ValueError("cores must be >= 1")
        nodes = -(-cores // self.cores_per_node)  # ceil
        if nodes > self.max_nodes:
            raise ValueError(
                f"{cores} cores need {nodes} nodes > {self.max_nodes} on {self.name}"
            )
        return nodes


#: Cray XC50 hybrid partition: 5320 nodes, Aries dragonfly.
PIZ_DAINT = MachineSpec(
    name="Piz Daint",
    cores_per_node=12,
    core_speed=1.0,
    network=NetworkSpec(
        name="Aries",
        latency=1.3e-6,
        bandwidth=10.2e9,  # ~10 GB/s injection per node
        topology="dragonfly",
    ),
    max_nodes=5320,
)

#: MareNostrum 4 general-purpose partition: 3456 nodes, Omni-Path fat tree.
MARENOSTRUM4 = MachineSpec(
    name="MareNostrum",
    cores_per_node=48,
    # Skylake 8160 at 2.1 GHz vs Haswell 2690v3 at 2.6 GHz: slightly lower
    # per-core clock, wider vectors; the measured curves in Fig. 1 sit a
    # touch above Piz Daint at equal core counts.
    core_speed=0.95,
    network=NetworkSpec(
        name="Omni-Path",
        latency=1.1e-6,
        bandwidth=12.5e9,  # 100 Gb/s
        topology="fat-tree",
    ),
    max_nodes=3456,
)

MACHINES = {"piz-daint": PIZ_DAINT, "marenostrum4": MARENOSTRUM4}
