"""Waste decomposition of one simulation run.

A campaign cell is summarised by a single scalar — its waste ratio — which
says *that* a strategy loses resources but not *where*.  The decomposition
splits the cell's node-seconds into the same categories the accounting layer
tracks (checkpoint writes, checkpoint-token waits, recovery reads, lost
work, I/O-queue delay, plus the useful compute and base-I/O time), both in
aggregate and per job.

Exactness contract
------------------
Every aggregate float is copied verbatim from the run's
:class:`~repro.simulation.accounting.Accounting` totals and the derived
quantities are computed by the *same expressions, in the same order* as
:class:`~repro.simulation.results.WasteBreakdown`.  Because a simulation is
a pure function of ``(config digest, strategy, seed)``, a drill-down's
:attr:`WasteDecomposition.waste_ratio` is therefore bit-identical
(repr-exact) to the scalar the result cache recorded for the same cell, and
the waste components sum — in category order — exactly to the total waste.

Per-job rows are labelled by a *stable* scheme (class name + submission
ordinal, restarts suffixed ``+r``) rather than raw ``Job.job_id`` values,
which come from a process-global counter: two drill-downs of the same cell
in one process must serialise byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import AnalysisError
from repro.simulation.accounting import Category
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import Simulation
from repro.simulation.trace import TraceEventType

__all__ = ["JobWaste", "WasteDecomposition"]

#: Waste categories in the summation order of
#: :attr:`repro.simulation.results.WasteBreakdown.waste` — the order matters
#: for the repr-exact components-sum-to-total invariant.
_WASTE_FIELDS: tuple[str, ...] = (
    "io_delay",
    "checkpoint",
    "checkpoint_wait",
    "recovery",
    "lost_work",
)

_USEFUL_FIELDS: tuple[str, ...] = ("compute", "base_io")

_CATEGORY_BY_FIELD: dict[str, Category] = {
    "compute": Category.COMPUTE,
    "base_io": Category.BASE_IO,
    "io_delay": Category.IO_DELAY,
    "checkpoint": Category.CHECKPOINT,
    "checkpoint_wait": Category.CHECKPOINT_WAIT,
    "recovery": Category.RECOVERY,
    "lost_work": Category.LOST_WORK,
}


@dataclass(frozen=True)
class JobWaste:
    """Per-job node-second ledger of one drill-down.

    ``name`` is the stable job label (``EAP#3``, restarts ``EAP#3+r``);
    ``index`` orders rows deterministically (initial jobs in submission
    order, then restarts in resubmission order).
    """

    index: int
    name: str
    compute: float
    base_io: float
    io_delay: float
    checkpoint: float
    checkpoint_wait: float
    recovery: float
    lost_work: float

    @property
    def useful(self) -> float:
        """Useful node-seconds attributed to this job."""
        return self.compute + self.base_io

    @property
    def waste(self) -> float:
        """Wasted node-seconds attributed to this job (category order)."""
        return (
            self.io_delay
            + self.checkpoint
            + self.checkpoint_wait
            + self.recovery
            + self.lost_work
        )


@dataclass(frozen=True)
class WasteDecomposition:
    """Aggregate + per-job waste breakdown of one campaign cell.

    The aggregate category floats are the run's accounting totals verbatim;
    see the module docstring for the exactness contract.  ``scenario`` is a
    display label (empty for ad-hoc configs); ``digest``/``strategy``/``seed``
    are the cell's cache key.
    """

    scenario: str
    strategy: str
    seed: int
    digest: str
    compute: float
    base_io: float
    io_delay: float
    checkpoint: float
    checkpoint_wait: float
    recovery: float
    lost_work: float
    allocated: float
    jobs: tuple[JobWaste, ...] = ()
    jobs_completed: int = 0
    jobs_failed: int = 0
    checkpoints_completed: int = 0
    failures_effective: int = 0

    # ------------------------------------------------------------ derived
    @property
    def useful(self) -> float:
        """Useful node-seconds (same expression as ``WasteBreakdown.useful``)."""
        return self.compute + self.base_io

    @property
    def waste(self) -> float:
        """Total wasted node-seconds — the components summed in category order.

        This is the same expression, evaluated in the same order, as
        :attr:`repro.simulation.results.WasteBreakdown.waste`, so it equals
        the recorded total bit-for-bit.
        """
        return (
            self.io_delay
            + self.checkpoint
            + self.checkpoint_wait
            + self.recovery
            + self.lost_work
        )

    @property
    def waste_ratio(self) -> float:
        """``waste / (useful + waste)`` — repr-exact match of the cached cell value."""
        total = self.useful + self.waste
        if total <= 0.0:
            return 0.0
        return self.waste / total

    @property
    def efficiency(self) -> float:
        """Useful fraction, ``1 - waste_ratio``."""
        return 1.0 - self.waste_ratio

    # ------------------------------------------------------------ construction
    @classmethod
    def from_simulation(
        cls,
        sim: Simulation,
        result: SimulationResult,
        *,
        digest: str,
        scenario: str = "",
    ) -> "WasteDecomposition":
        """Build the decomposition of a completed trace-enabled run.

        Requires the simulation to have run with ``collect_trace=True`` (which
        also enables per-job accounting); the aggregate floats are taken from
        ``result.breakdown`` so they are the exact values the cache recorded.
        """
        if sim.trace is None or not sim.accounting.tracks_jobs:
            raise AnalysisError(
                "waste decomposition needs a trace-enabled run "
                "(SimulationConfig.collect_trace=True)"
            )
        labels = _stable_job_labels(sim)
        ledgers = sim.accounting.job_totals()
        jobs: list[JobWaste] = []
        for index, (job_id, name) in enumerate(labels):
            ledger = ledgers.get(job_id)
            if ledger is None or not any(ledger.values()):
                continue
            jobs.append(
                JobWaste(
                    index=index,
                    name=name,
                    **{
                        field: ledger[category]
                        for field, category in _CATEGORY_BY_FIELD.items()
                    },
                )
            )
        b = result.breakdown
        return cls(
            scenario=scenario,
            strategy=result.strategy,
            seed=int(sim.config.seed or 0),
            digest=digest,
            compute=b.compute,
            base_io=b.base_io,
            io_delay=b.io_delay,
            checkpoint=b.checkpoint,
            checkpoint_wait=b.checkpoint_wait,
            recovery=b.recovery,
            lost_work=b.lost_work,
            allocated=b.allocated,
            jobs=tuple(jobs),
            jobs_completed=result.jobs_completed,
            jobs_failed=result.jobs_failed,
            checkpoints_completed=result.checkpoints_completed,
            failures_effective=result.failures_effective,
        )

    # ------------------------------------------------------------ serialisation
    def to_payload(self) -> dict:
        """JSON-encodable payload, as ``/trace`` serves it (floats stay
        repr-exact via json)."""
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "seed": self.seed,
            "digest": self.digest,
            "categories": {
                name: getattr(self, name)
                for name in (*_USEFUL_FIELDS, *_WASTE_FIELDS)
            },
            "allocated": self.allocated,
            "counters": {
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "checkpoints_completed": self.checkpoints_completed,
                "failures_effective": self.failures_effective,
            },
            "jobs": [
                {
                    "index": job.index,
                    "name": job.name,
                    **{
                        name: getattr(job, name)
                        for name in (*_USEFUL_FIELDS, *_WASTE_FIELDS)
                    },
                }
                for job in self.jobs
            ],
        }


def _stable_job_labels(sim: Simulation) -> list[tuple[int, str]]:
    """``(job_id, stable label)`` pairs, in deterministic order.

    ``Job.job_id`` comes from a process-global counter, so raw ids differ
    between two runs of the same cell in one process.  Labels are instead
    derived from submission order: initial jobs are ``<class>#<ordinal>``
    (1-based, generation order), and each restart appends ``+r`` to its
    parent's label (chaining for repeated failures), in resubmission order
    from the trace.
    """
    assert sim.trace is not None
    labels: dict[int, str] = {}
    ordered: list[tuple[int, str]] = []
    for ordinal, job in enumerate(sim.jobs, start=1):
        label = f"{job.app_class.name}#{ordinal}"
        labels[job.job_id] = label
        ordered.append((job.job_id, label))
    for event in sim.trace.of_kind(TraceEventType.RESTART_SUBMITTED):
        parent = event.detail.get("parent")
        # A malformed detail dict (no int parent) degrades to the "job#?"
        # placeholder rather than mislabelling some unrelated job.
        base = labels.get(parent, "job#?") if isinstance(parent, int) else "job#?"
        label = base + "+r"
        labels[event.job_id] = label
        ordered.append((event.job_id, label))
    return ordered


# Sanity: the field lists above must stay in lockstep with JobWaste.
assert {f.name for f in fields(JobWaste)} == {
    "index",
    "name",
    *_USEFUL_FIELDS,
    *_WASTE_FIELDS,
}
