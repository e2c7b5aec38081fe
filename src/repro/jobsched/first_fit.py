"""Greedy first-fit job placement.

Whenever nodes become free (a job completes or fails) or new jobs are
submitted, the scheduler walks the pending queue in priority order and
starts every job whose node requirement fits in the currently free nodes.
This is the paper's "simple, greedy first-fit algorithm" (§2, §5) and keeps
the platform over 98 % allocated for the APEX-style workloads.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.job import Job
from repro.jobsched.queue import JobQueue
from repro.platform.nodes import NodePool

__all__ = ["FirstFitScheduler"]


class FirstFitScheduler:
    """Pairs a :class:`JobQueue` with a :class:`NodePool` and places jobs greedily."""

    def __init__(self, pool: NodePool) -> None:
        self._pool = pool
        self._queue = JobQueue()

    # ------------------------------------------------------------ queue API
    @property
    def queue(self) -> JobQueue:
        """The underlying pending-job queue."""
        return self._queue

    @property
    def pool(self) -> NodePool:
        """The node pool placements are made against."""
        return self._pool

    def submit(self, job: Job) -> None:
        """Add ``job`` to the pending queue (it is not started yet)."""
        self._queue.push(job)

    # ------------------------------------------------------------ placement
    def dispatch(self, start_job: Callable[[Job, list[int]], None]) -> list[Job]:
        """Start every queued job that fits, in priority order.

        Parameters
        ----------
        start_job:
            Callback invoked for each started job with the job and the list
            of node ids allocated to it.  The callback runs after the
            allocation is recorded in the pool, so it may immediately
            schedule simulation events for the job.

        Returns
        -------
        list[Job]
            The jobs that were started, in start order.
        """
        started: list[Job] = []
        for job in self._queue.ordered():
            if not self._pool.can_allocate(job.nodes):
                # First-fit (not first-fit-decreasing): keep scanning, a
                # smaller job further down the queue may still fit.
                continue
            nodes = self._pool.allocate(job.nodes, owner=job)
            self._queue.remove(job)
            started.append(job)
            start_job(job, nodes)
        return started
