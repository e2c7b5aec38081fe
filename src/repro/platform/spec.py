"""Static platform description.

A :class:`PlatformSpec` captures the few platform-level parameters the model
needs: the number of (space-shared) compute nodes, the per-node memory, the
aggregate parallel-file-system bandwidth and the MTBF of an individual node.
Concrete platforms (Cielo, the prospective exascale-class system) are
defined in :mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.daly import system_mtbf
from repro.errors import ConfigurationError, short_repr
from repro.units import GB, YEAR, is_finite, to_gb, to_hours

__all__ = ["MAX_NUM_NODES", "PlatformSpec"]

#: The largest node count a platform may have: 20x the 50 000-node
#: prospective system.  The simulator keeps one entry per node, so a far
#: larger platform exhausts memory instead of failing cleanly.
MAX_NUM_NODES = 1_000_000


@dataclass(frozen=True)
class PlatformSpec:
    """Description of a shared HPC platform.

    Attributes
    ----------
    name:
        Human-readable platform name (e.g. ``"Cielo"``).
    num_nodes:
        Number of space-shared compute nodes ``N``.
    cores_per_node:
        Cores per node; only used to convert the APEX per-job core counts
        into node counts.
    memory_per_node_bytes:
        Main memory per node (bytes); checkpoint/input/output sizes are
        expressed as fractions of a job's aggregate memory footprint.
    io_bandwidth_bytes_per_s:
        Aggregate parallel-file-system bandwidth ``beta`` shared by all
        concurrent I/O (bytes/s).
    node_mtbf_s:
        MTBF of an individual node ``mu_ind`` (seconds).
    """

    name: str
    num_nodes: int
    cores_per_node: int
    memory_per_node_bytes: float
    io_bandwidth_bytes_per_s: float
    node_mtbf_s: float

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if self.num_nodes > MAX_NUM_NODES:
            raise ConfigurationError(
                f"num_nodes must be at most {MAX_NUM_NODES}, got {short_repr(self.num_nodes)}"
            )
        if self.cores_per_node <= 0:
            raise ConfigurationError("cores_per_node must be positive")
        for name in ("memory_per_node_bytes", "io_bandwidth_bytes_per_s", "node_mtbf_s"):
            value = getattr(self, name)
            if not (value > 0.0) or not is_finite(value):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {short_repr(value)}"
                )

    # ------------------------------------------------------------ derived
    @property
    def total_memory_bytes(self) -> float:
        """Aggregate main memory of the platform (bytes)."""
        return self.num_nodes * self.memory_per_node_bytes

    @property
    def system_mtbf_s(self) -> float:
        """Platform-wide MTBF ``mu_ind / N`` (seconds)."""
        return system_mtbf(self.node_mtbf_s, self.num_nodes)

    # ------------------------------------------------------------ variants
    def with_bandwidth(self, bandwidth_bytes_per_s: float) -> "PlatformSpec":
        """Copy of this platform with a different aggregate I/O bandwidth."""
        return replace(self, io_bandwidth_bytes_per_s=bandwidth_bytes_per_s)

    def with_node_mtbf(self, node_mtbf_s: float) -> "PlatformSpec":
        """Copy of this platform with a different individual-node MTBF."""
        return replace(self, node_mtbf_s=node_mtbf_s)

    def with_num_nodes(self, num_nodes: int) -> "PlatformSpec":
        """Copy of this platform with a different node count."""
        return replace(self, num_nodes=num_nodes)

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        """Multi-line human-readable summary of the platform."""
        return (
            f"Platform {self.name}\n"
            f"  nodes              : {self.num_nodes} x {self.cores_per_node} cores\n"
            f"  memory             : {to_gb(self.total_memory_bytes):.0f} GB total "
            f"({self.memory_per_node_bytes / GB:.0f} GB/node)\n"
            f"  PFS bandwidth      : {self.io_bandwidth_bytes_per_s / GB:.1f} GB/s\n"
            f"  node MTBF          : {self.node_mtbf_s / YEAR:.1f} years\n"
            f"  system MTBF        : {to_hours(self.system_mtbf_s):.2f} hours"
        )
