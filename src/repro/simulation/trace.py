"""Optional per-job execution trace.

When a :class:`~repro.simulation.config.SimulationConfig` sets
``collect_trace=True``, the simulator records a time-stamped event for every
significant job transition (start, input done, checkpoint request / start /
completion, failure, restart, completion).  The trace is useful for

* debugging a scheduling strategy on a small scenario,
* computing *achieved* checkpoint intervals (the paper's ``C_dilated``
  discussion in §2: the effective period differs from the requested one when
  commits are delayed or dilated), and
* exporting a timeline for external visualisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique

from repro.apps.job import Job

__all__ = ["TraceEventType", "TraceEvent", "TraceRecorder"]


@unique
class TraceEventType(Enum):
    """Kinds of recorded job events."""

    JOB_START = "job-start"
    INPUT_DONE = "input-done"
    CHECKPOINT_REQUEST = "checkpoint-request"
    CHECKPOINT_START = "checkpoint-start"
    CHECKPOINT_DONE = "checkpoint-done"
    REGULAR_IO_DONE = "regular-io-done"
    OUTPUT_START = "output-start"
    OUTPUT_DONE = "output-done"
    JOB_COMPLETE = "job-complete"
    JOB_FAILED = "job-failed"
    RESTART_SUBMITTED = "restart-submitted"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    job_id: int
    job_name: str
    kind: TraceEventType
    detail: dict = field(default_factory=dict)


class TraceRecorder:
    """Accumulates :class:`TraceEvent` objects during a simulation run.

    Readers filter :attr:`events` by ``job_id`` or ``kind``, or call one of
    the whole-trace analyses below.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    # ------------------------------------------------------------ recording
    def record(self, time: float, job: Job, kind: TraceEventType, **detail) -> None:
        """Record one event for ``job`` at simulation time ``time``."""
        self._events.append(
            TraceEvent(time=time, job_id=job.job_id, job_name=job.name, kind=kind, detail=detail)
        )

    # ------------------------------------------------------------ queries
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events, in recording (time) order."""
        return tuple(self._events)

    # ------------------------------------------------------------ analysis
    def io_wait_by_job(self) -> dict[int, float]:
        """Total recorded I/O queue wait per job (wall-clock seconds).

        Sums the ``waited`` detail over every completion event that carries
        one (input/recovery, regular I/O, output and checkpoint completions),
        i.e. how long each job's transfers sat in the scheduler's queue
        before being granted the file system.
        """
        completions = (
            TraceEventType.INPUT_DONE,
            TraceEventType.REGULAR_IO_DONE,
            TraceEventType.OUTPUT_DONE,
            TraceEventType.CHECKPOINT_DONE,
        )
        waits: dict[int, float] = {}
        for event in self._events:
            # Only completion events: CHECKPOINT_START carries the same
            # ``waited`` value as its CHECKPOINT_DONE and must not be
            # counted twice.
            if event.kind not in completions:
                continue
            waited = event.detail.get("waited")
            if waited is None:
                continue
            waits[event.job_id] = waits.get(event.job_id, 0.0) + float(waited)
        return waits

    def achieved_checkpoint_intervals(self) -> dict[int, list[float]]:
        """Achieved checkpoint intervals of every job that checkpointed, in
        the order of their first event, in one pass over the trace.

        A job's first interval starts at its compute start: its first
        ``INPUT_DONE``, else its ``JOB_START``, else its first completion.
        """
        # Per job, in first-seen order: the first time of each other kind.
        firsts: dict[int, dict[TraceEventType, float]] = {}
        completions: dict[int, list[float]] = {}
        for event in self._events:
            job_firsts = firsts.setdefault(event.job_id, {})
            if event.kind is TraceEventType.CHECKPOINT_DONE:
                completions.setdefault(event.job_id, []).append(event.time)
            else:
                job_firsts.setdefault(event.kind, event.time)
        intervals: dict[int, list[float]] = {}
        for job_id, job_firsts in firsts.items():
            if times := completions.get(job_id):
                start = job_firsts.get(
                    TraceEventType.INPUT_DONE, job_firsts.get(TraceEventType.JOB_START, times[0])
                )
                intervals[job_id] = [b - a for a, b in zip([start, *times], times)]
        return intervals
