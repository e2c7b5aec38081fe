"""Greedy first-fit job placement.

Whenever nodes become free (a job completes or fails) or new jobs are
submitted, the scheduler walks its pending jobs in priority order and
starts every job whose node requirement fits in the currently free nodes.
This is the paper's "simple, greedy first-fit algorithm" (§2, §5) and keeps
the platform over 98 % allocated for the APEX-style workloads.

Pending jobs are ordered by ``(priority, submit_time, job_id)``.  Regular
jobs get priority 0 in arrival order; restarted jobs are submitted with a
negative priority so the first-fit pass considers them first, matching the
paper's policy of restarting failed jobs at the head of the queue so they
reclaim their nodes immediately.

Pending jobs are held by identity: two distinct jobs that compare equal are
each queued and started on their own, and the scheduler never runs
``Job.__eq__``, which compares every field.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from repro.apps.job import Job
from repro.errors import SchedulingError
from repro.platform.nodes import NodePool

__all__ = ["FirstFitScheduler"]

#: The order in which pending jobs are considered.
_ORDER = attrgetter("priority", "submit_time", "job_id")


class FirstFitScheduler:
    """Holds the pending jobs and places them greedily on a :class:`NodePool`."""

    def __init__(self, pool: NodePool) -> None:
        self._pool = pool
        # id(job) -> job.  The dict keeps each pending job alive, so its
        # id() is not reused while it waits.
        self._pending: dict[int, Job] = {}

    def submit(self, job: Job) -> None:
        """Add ``job`` to the pending jobs (it is not started yet)."""
        if id(job) in self._pending:
            raise SchedulingError(f"job {job.name} is already queued")
        self._pending[id(job)] = job

    def dispatch(self, start_job: Callable[[Job], None]) -> None:
        """Start every pending job that fits, in priority order.

        ``start_job`` is called with each started job after its nodes are
        allocated in the pool, so it may immediately schedule simulation
        events for the job.
        """
        pool, pending = self._pool, self._pending
        for job in sorted(pending.values(), key=_ORDER):
            if not pool.can_allocate(job.nodes):
                # First-fit (not first-fit-decreasing): keep scanning, a
                # smaller job further down the queue may still fit.
                continue
            pool.allocate(job.nodes, owner=job)
            del pending[id(job)]
            start_job(job)
