"""Priority queue of pending jobs.

Jobs are ordered by ``(priority, submit_time, job_id)``.  Regular jobs get
priority 0 in arrival order; restarted jobs are enqueued with a negative
priority so they are considered first by the first-fit pass, matching the
paper's policy of restarting failed jobs at the head of the queue so they
reclaim their nodes immediately.

Membership is by identity: a job is queued once as an object, and two
distinct jobs that compare equal can each be queued and removed on their
own.  The queue never runs ``Job.__eq__``, which compares every field.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.apps.job import Job
from repro.errors import SchedulingError

__all__ = ["JobQueue"]


class JobQueue:
    """Ordered collection of jobs waiting for nodes."""

    def __init__(self) -> None:
        # id(job) -> job, in insertion order.  The dict keeps each queued
        # job alive, so its id() is not reused while it is queued.
        self._jobs: dict[int, Job] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        """Iterate in scheduling order (highest priority first)."""
        return iter(self.ordered())

    def __contains__(self, job: Job) -> bool:
        return id(job) in self._jobs

    def push(self, job: Job) -> None:
        """Add a job to the queue."""
        if id(job) in self._jobs:
            raise SchedulingError(f"job {job.name} is already queued")
        self._jobs[id(job)] = job

    def remove(self, job: Job) -> None:
        """Remove a job (e.g. because it just started)."""
        if self._jobs.pop(id(job), None) is None:
            raise SchedulingError(f"job {job.name} is not in the queue")

    def ordered(self) -> list[Job]:
        """Jobs in scheduling order: priority, then submit time, then id."""
        return sorted(self._jobs.values(), key=lambda j: (j.priority, j.submit_time, j.job_id))

    def clear(self) -> None:
        """Drop every queued job."""
        self._jobs.clear()
