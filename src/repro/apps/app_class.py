"""Application classes.

An *application class* (paper §2) groups jobs with similar size, duration
and I/O behaviour.  The APEX workflows report characterises each class by
its core count, typical work time, and initial-input / final-output /
checkpoint volumes expressed as percentages of the job's memory footprint;
:meth:`ApplicationClass.from_memory_fractions` performs that conversion for
a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.platform.spec import PlatformSpec
from repro.units import GB, HOUR

__all__ = ["ApplicationClass"]


@dataclass(frozen=True)
class ApplicationClass:
    """Static description of an application class.

    Attributes
    ----------
    name:
        Class name (e.g. ``"EAP"``).
    nodes:
        Number of nodes ``q_i`` used by each job of the class.
    work_s:
        Typical failure-free compute time of a job (seconds of wall-clock
        work, excluding all I/O).
    input_bytes:
        Volume of the initial input read.
    output_bytes:
        Volume of the final output write.
    checkpoint_bytes:
        Volume of one coordinated checkpoint (also the volume read back on
        recovery, since read and write bandwidths are symmetric).
    routine_io_bytes:
        Total volume of regular (non-checkpoint) I/O performed during the
        compute phase, evenly spread over the job's makespan.  The APEX
        table in the paper does not list it, so it defaults to 0.
    workload_share:
        Fraction of the platform's node-hours the class should receive in a
        representative job mix (0..1); used by the workload generator.
    """

    name: str
    nodes: int
    work_s: float
    input_bytes: float
    output_bytes: float
    checkpoint_bytes: float
    routine_io_bytes: float = 0.0
    workload_share: float = 0.0

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError(f"class {self.name!r}: nodes must be positive")
        if self.work_s <= 0.0:
            raise ConfigurationError(f"class {self.name!r}: work_s must be positive")
        for field_name in ("input_bytes", "output_bytes", "checkpoint_bytes", "routine_io_bytes"):
            if getattr(self, field_name) < 0.0:
                raise ConfigurationError(f"class {self.name!r}: {field_name} must be >= 0")
        if self.checkpoint_bytes <= 0.0:
            raise ConfigurationError(f"class {self.name!r}: checkpoint_bytes must be positive")
        if not (0.0 <= self.workload_share <= 1.0):
            raise ConfigurationError(f"class {self.name!r}: workload_share must be in [0, 1]")

    # ------------------------------------------------------------ construction
    @classmethod
    def from_memory_fractions(
        cls,
        name: str,
        *,
        platform: PlatformSpec,
        cores: int,
        work_s: float,
        input_fraction: float,
        output_fraction: float,
        checkpoint_fraction: float,
        routine_io_fraction: float = 0.0,
        workload_share: float = 0.0,
    ) -> "ApplicationClass":
        """Build a class from APEX-style memory-fraction characteristics.

        ``cores`` is converted to whole nodes of ``platform`` (rounded up);
        the job memory footprint is ``nodes * memory_per_node`` and each
        ``*_fraction`` is a fraction (1.0 == 100 % of the footprint) of that
        footprint, matching the percentage columns of Table 1.
        """
        if cores <= 0:
            raise ConfigurationError(f"class {name!r}: cores must be positive")
        nodes = max(1, -(-cores // platform.cores_per_node))  # ceil division
        if nodes > platform.num_nodes:
            raise ConfigurationError(
                f"class {name!r} needs {nodes} nodes but platform "
                f"{platform.name!r} only has {platform.num_nodes}"
            )
        footprint = nodes * platform.memory_per_node_bytes
        return cls(
            name=name,
            nodes=nodes,
            work_s=work_s,
            input_bytes=input_fraction * footprint,
            output_bytes=output_fraction * footprint,
            checkpoint_bytes=checkpoint_fraction * footprint,
            routine_io_bytes=routine_io_fraction * footprint,
            workload_share=workload_share,
        )

    # ------------------------------------------------------------ derived
    def checkpoint_time(self, bandwidth_bytes_per_s: float) -> float:
        """Interference-free checkpoint commit time ``C_i`` at the given bandwidth."""
        if bandwidth_bytes_per_s <= 0.0:
            raise ConfigurationError("bandwidth_bytes_per_s must be positive")
        return self.checkpoint_bytes / bandwidth_bytes_per_s

    def recovery_time(self, bandwidth_bytes_per_s: float) -> float:
        """Interference-free recovery (checkpoint read) time ``R_i``.

        Read and write bandwidths are symmetric (§5), so ``R_i == C_i``.
        """
        return self.checkpoint_time(bandwidth_bytes_per_s)

    def scaled_to(self, platform: PlatformSpec, reference: PlatformSpec) -> "ApplicationClass":
        """Scale the class from ``reference`` to ``platform``.

        Used for the prospective-system study (§6.2): the per-job memory
        footprint (hence input/output/checkpoint volumes) grows with the
        platform's memory per node, while node counts and work stay the
        same fraction of the machine.
        """
        node_scale = platform.num_nodes / reference.num_nodes
        new_nodes = max(1, int(round(self.nodes * node_scale)))
        old_footprint = self.nodes * reference.memory_per_node_bytes
        new_footprint = new_nodes * platform.memory_per_node_bytes
        volume_scale = new_footprint / old_footprint
        return replace(
            self,
            nodes=new_nodes,
            input_bytes=self.input_bytes * volume_scale,
            output_bytes=self.output_bytes * volume_scale,
            checkpoint_bytes=self.checkpoint_bytes * volume_scale,
            routine_io_bytes=self.routine_io_bytes * volume_scale,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.nodes} nodes, work {self.work_s / HOUR:.1f} h, "
            f"ckpt {self.checkpoint_bytes / GB:.0f} GB, "
            f"input {self.input_bytes / GB:.0f} GB, output {self.output_bytes / GB:.0f} GB, "
            f"share {100.0 * self.workload_share:.1f}%"
        )
