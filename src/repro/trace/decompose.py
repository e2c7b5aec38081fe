"""Waste decomposition of one simulation run.

A campaign cell is summarised by a single scalar — its waste ratio — which
says *that* a strategy loses resources but not *where*.  The decomposition
splits the cell's node-seconds into the same categories the accounting layer
tracks (checkpoint writes, checkpoint-token waits, recovery reads, lost
work, I/O-queue delay, plus the useful compute and base-I/O time), both in
aggregate and per job.

Exactness contract
------------------
A decomposition holds the run's own
:class:`~repro.simulation.results.SimulationResult`, so the aggregate
categories, counters and waste ratio are the run's, not copies of them.
Because a simulation is a pure function of ``(config digest, strategy,
seed)``, and per-job tracking changes no reported result (see
:mod:`repro.simulation.accounting`), ``decomposition.result.waste_ratio`` is
bit-identical (repr-exact) to the scalar the result store recorded for the
same cell.

Per-job rows are labelled by a *stable* scheme (class name + submission
ordinal, restarts suffixed ``+r``) rather than raw ``Job.job_id`` values,
which come from a process-global counter: two drill-downs of the same cell
in one process must serialise byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.simulation.results import CATEGORY_FIELDS, SimulationResult
from repro.simulation.simulator import Simulation

__all__ = ["JobWaste", "WasteDecomposition"]


@dataclass(frozen=True)
class JobWaste:
    """Per-job node-second ledger of one drill-down.

    ``name`` is the stable job label (``EAP#3``, restarts ``EAP#3+r``);
    ``index`` orders rows deterministically (initial jobs in submission
    order, then restarts in resubmission order).  The category fields are
    those of :data:`~repro.simulation.results.CATEGORY_FIELDS`; a job's
    ledger records no allocation total.
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
    def waste(self) -> float:
        """Wasted node-seconds attributed to this job, summed left to right
        in category order (never with ``sum()``, which compensates rounding
        from Python 3.12 on)."""
        return (
            self.io_delay
            + self.checkpoint
            + self.checkpoint_wait
            + self.recovery
            + self.lost_work
        )


@dataclass(frozen=True)
class WasteDecomposition:
    """One campaign cell's run, with its waste split per job.

    ``scenario`` is a display label (empty for ad-hoc configs);
    ``digest``, ``result.strategy`` and ``seed`` are the cell's store key.
    ``result`` is the run's :class:`SimulationResult`: read the aggregate
    categories from ``result.breakdown`` and the waste ratio and counters
    from ``result``.  ``recorded_value`` is the value the store held for the
    cell before the drill (``None`` without a store, or when the entry was
    missing or unreadable).  It is provenance and takes no part in
    comparisons, so a cold and a warm drill of one cell compare equal.
    """

    scenario: str
    seed: int
    digest: str
    result: SimulationResult
    jobs: tuple[JobWaste, ...]
    recorded_value: float | None = field(default=None, compare=False)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_simulation(
        cls,
        sim: Simulation,
        result: SimulationResult,
        *,
        digest: str,
        scenario: str = "",
        recorded_value: float | None = None,
    ) -> "WasteDecomposition":
        """Build the decomposition of a completed trace-enabled run.

        Requires the simulation to have run with ``collect_trace=True``,
        which enables the per-job accounting ledgers the rows read.
        """
        if not sim.accounting.tracks_jobs:
            raise AnalysisError(
                "waste decomposition needs a trace-enabled run "
                "(SimulationConfig.collect_trace=True)"
            )
        ledgers = sim.accounting.job_totals()
        jobs: list[JobWaste] = []
        for index, (job_id, label) in enumerate(_stable_job_labels(sim)):
            ledger = ledgers.get(job_id)
            if ledger is None or not any(ledger.values()):
                continue
            jobs.append(
                JobWaste(
                    index=index,
                    name=label,
                    **{name: ledger[category] for category, name in CATEGORY_FIELDS.items()},
                )
            )
        return cls(
            scenario=scenario,
            seed=int(sim.config.seed or 0),
            digest=digest,
            result=result,
            jobs=tuple(jobs),
            recorded_value=recorded_value,
        )

    # ------------------------------------------------------------ serialisation
    def to_payload(self) -> dict:
        """JSON-encodable payload, as ``/trace`` serves it (floats stay
        repr-exact via json)."""
        result = self.result
        return {
            "scenario": self.scenario,
            "strategy": result.strategy,
            "seed": self.seed,
            "digest": self.digest,
            "categories": {
                name: getattr(result.breakdown, name) for name in CATEGORY_FIELDS.values()
            },
            "allocated": result.breakdown.allocated,
            "counters": {
                "jobs_completed": result.jobs_completed,
                "jobs_failed": result.jobs_failed,
                "checkpoints_completed": result.checkpoints_completed,
                "failures_effective": result.failures_effective,
            },
            "jobs": [
                {
                    "index": job.index,
                    "name": job.name,
                    **{name: getattr(job, name) for name in CATEGORY_FIELDS.values()},
                }
                for job in self.jobs
            ],
        }


def _stable_job_labels(sim: Simulation) -> list[tuple[int, str]]:
    """``(job_id, stable label)`` pairs, in deterministic order.

    ``Job.job_id`` comes from a process-global counter, so raw ids differ
    between two runs of the same cell in one process.  Labels are instead
    derived from submission order: initial jobs are ``<class>#<ordinal>``
    (1-based, generation order, ``sim.jobs``), and each restart appends
    ``+r`` to the label of the job it resubmits (``Job.parent_id``,
    chaining for repeated failures), in resubmission order
    (``sim.restarts``, where a parent always precedes its restart).
    """
    labels: dict[int, str] = {}
    for ordinal, job in enumerate(sim.jobs, start=1):
        labels[job.job_id] = f"{job.app_class.name}#{ordinal}"
    for restart in sim.restarts:
        assert restart.parent_id is not None
        labels[restart.job_id] = labels[restart.parent_id] + "+r"
    return list(labels.items())
