"""Result records of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.accounting import Accounting, Category

__all__ = ["CATEGORY_FIELDS", "WasteBreakdown", "SimulationResult"]

#: The :class:`WasteBreakdown` field of each accounting category: the two
#: useful ones, then the waste ones in the order :attr:`WasteBreakdown.waste`
#: sums them.  The drill-down (:mod:`repro.trace`) names its per-job rows,
#: CSV columns and ``/trace`` payload keys from this table too.
CATEGORY_FIELDS: dict[Category, str] = {
    Category.COMPUTE: "compute",
    Category.BASE_IO: "base_io",
    Category.IO_DELAY: "io_delay",
    Category.CHECKPOINT: "checkpoint",
    Category.CHECKPOINT_WAIT: "checkpoint_wait",
    Category.RECOVERY: "recovery",
    Category.LOST_WORK: "lost_work",
}


@dataclass(frozen=True)
class WasteBreakdown:
    """Node-second totals per accounting category over the measurement window.

    All values are node-seconds.  ``compute`` and ``base_io`` are useful;
    the remaining categories are waste.  ``allocated`` is the total
    allocated node-seconds inside the window (useful + waste + any idle time
    of allocated nodes that was not attributed to a category, which is
    negligible by construction).
    """

    compute: float
    base_io: float
    io_delay: float
    checkpoint: float
    checkpoint_wait: float
    recovery: float
    lost_work: float
    allocated: float

    @classmethod
    def from_accounting(cls, accounting: Accounting) -> "WasteBreakdown":
        """Build a breakdown from an :class:`~repro.simulation.accounting.Accounting`."""
        totals = accounting.totals()
        return cls(
            **{name: totals[category] for category, name in CATEGORY_FIELDS.items()},
            allocated=accounting.allocated_node_seconds,
        )

    @property
    def useful(self) -> float:
        """Useful node-seconds (compute + un-dilated application I/O)."""
        return self.compute + self.base_io

    @property
    def waste(self) -> float:
        """Wasted node-seconds (resilience overheads + I/O delays + lost work)."""
        return self.io_delay + self.checkpoint + self.checkpoint_wait + self.recovery + self.lost_work

    @property
    def waste_ratio(self) -> float:
        """Wasted fraction of the accounted resources, ``waste / (useful + waste)``.

        This matches the quantity plotted in Figures 1 and 2 of the paper:
        the wasted node-seconds of the measurement segment divided by the
        resource usage of the baseline (failure-free, checkpoint-free)
        execution of the same segment, which keeps the same nodes busy with
        useful work only.  It is bounded by 1.
        """
        total = self.useful + self.waste
        if total <= 0.0:
            return 0.0
        return self.waste / total

    @property
    def efficiency(self) -> float:
        """Useful fraction of the accounted node-seconds, ``useful / (useful + waste)``."""
        return 1.0 - self.waste_ratio


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    strategy:
        Name of the I/O scheduling strategy that was simulated.
    breakdown:
        Node-second accounting over the measurement window.
    horizon_s / window:
        Simulated segment length and the measurement window.
    jobs_submitted / jobs_completed / jobs_failed / restarts_submitted:
        Job-level counters over the whole run (not restricted to the
        window); restarts count as separate submissions.
    failures_total / failures_effective:
        Failures injected, and failures that actually hit a node allocated
        to a running job.
    checkpoints_completed / checkpoints_requested:
        Checkpoint transfers that finished / were requested.
    node_utilization:
        Allocated node-seconds inside the window divided by the window's
        node-second capacity.
    io_busy_fraction:
        Fraction of the run during which the file system had at least one
        active transfer.
    events_fired:
        Number of discrete events executed (a cost/diagnostic metric).
    """

    strategy: str
    breakdown: WasteBreakdown
    horizon_s: float
    window: tuple[float, float]
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    restarts_submitted: int
    failures_total: int
    failures_effective: int
    checkpoints_completed: int
    checkpoints_requested: int
    node_utilization: float
    io_busy_fraction: float
    events_fired: int

    @property
    def waste_ratio(self) -> float:
        """Waste ratio over the measurement window (see :class:`WasteBreakdown`)."""
        return self.breakdown.waste_ratio

    @property
    def efficiency(self) -> float:
        """Platform efficiency over the measurement window."""
        return self.breakdown.efficiency

    def summary(self) -> str:
        """Multi-line human-readable summary of the run."""
        b = self.breakdown
        lines = [
            f"strategy            : {self.strategy}",
            f"waste ratio         : {self.waste_ratio:.3f}",
            f"efficiency          : {self.efficiency:.3f}",
            f"node utilization    : {self.node_utilization:.3f}",
            f"jobs completed      : {self.jobs_completed}/{self.jobs_submitted}"
            f" (+{self.restarts_submitted} restarts)",
            f"failures (effective): {self.failures_effective}/{self.failures_total}",
            f"checkpoints         : {self.checkpoints_completed}/{self.checkpoints_requested}",
            "breakdown (node-hours in window):",
            f"  compute           : {b.compute / 3600.0:.1f}",
            f"  base I/O          : {b.base_io / 3600.0:.1f}",
            f"  I/O delay         : {b.io_delay / 3600.0:.1f}",
            f"  checkpoint        : {b.checkpoint / 3600.0:.1f}",
            f"  checkpoint wait   : {b.checkpoint_wait / 3600.0:.1f}",
            f"  recovery          : {b.recovery / 3600.0:.1f}",
            f"  lost work         : {b.lost_work / 3600.0:.1f}",
        ]
        return "\n".join(lines)
