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
from collections.abc import Iterator

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
    """Accumulates :class:`TraceEvent` objects during a simulation run."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    # ------------------------------------------------------------ recording
    def record(self, time: float, job: Job, kind: TraceEventType, **detail) -> None:
        """Record one event for ``job`` at simulation time ``time``."""
        self._events.append(
            TraceEvent(time=time, job_id=job.job_id, job_name=job.name, kind=kind, detail=detail)
        )

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events, in recording (time) order."""
        return tuple(self._events)

    def for_job(self, job_id: int) -> list[TraceEvent]:
        """Events of one job."""
        return [event for event in self._events if event.job_id == job_id]

    def of_kind(self, kind: TraceEventType) -> list[TraceEvent]:
        """Events of one kind, across all jobs."""
        return [event for event in self._events if event.kind is kind]

    def job_ids(self) -> list[int]:
        """Distinct job ids appearing in the trace, in first-seen order."""
        seen: dict[int, None] = {}
        for event in self._events:
            seen.setdefault(event.job_id, None)
        return list(seen)

    # ------------------------------------------------------------ analysis
    def checkpoint_intervals(self, job_id: int) -> list[float]:
        """Achieved intervals between consecutive checkpoint completions of a job.

        The first interval is measured from the job's compute start (the
        ``INPUT_DONE`` event, or ``JOB_START`` for jobs without input).
        """
        events = self.for_job(job_id)
        completions = [e.time for e in events if e.kind is TraceEventType.CHECKPOINT_DONE]
        if not completions:
            return []
        # The compute phase starts when the input completes; fall back to the
        # job start for jobs without input, then to the first completion.
        input_done = [e.time for e in events if e.kind is TraceEventType.INPUT_DONE]
        job_start = [e.time for e in events if e.kind is TraceEventType.JOB_START]
        if input_done:
            reference = input_done[0]
        elif job_start:
            reference = job_start[0]
        else:
            reference = completions[0]
        intervals = []
        previous = reference
        for time in completions:
            intervals.append(time - previous)
            previous = time
        return intervals

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
        """Achieved checkpoint intervals for every job that checkpointed."""
        return {
            job_id: intervals
            for job_id in self.job_ids()
            if (intervals := self.checkpoint_intervals(job_id))
        }
