"""Job queue and first-fit placement (repro.jobsched)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.job import Job
from repro.errors import SchedulingError
from repro.jobsched.first_fit import FirstFitScheduler
from repro.jobsched.queue import JobQueue
from repro.platform.nodes import NodePool
from repro.units import HOUR


def make_job(tiny_classes, index=0, **kwargs) -> Job:
    return Job(app_class=tiny_classes[index], total_work_s=HOUR, **kwargs)


# --------------------------------------------------------------------- queue
def test_queue_orders_by_priority_then_submit_time(tiny_classes):
    queue = JobQueue()
    late = make_job(tiny_classes, priority=0.0, submit_time=10.0)
    early = make_job(tiny_classes, priority=0.0, submit_time=5.0)
    urgent = make_job(tiny_classes, priority=-1.0, submit_time=20.0)
    for job in (late, early, urgent):
        queue.push(job)
    assert queue.ordered() == [urgent, early, late]
    assert queue.ordered()[0] is urgent
    assert list(queue) == [urgent, early, late]
    assert len(queue) == 3
    assert early in queue


def test_queue_push_remove_and_errors(tiny_classes):
    queue = JobQueue()
    job = make_job(tiny_classes)
    queue.push(job)
    with pytest.raises(SchedulingError):
        queue.push(job)
    queue.remove(job)
    assert len(queue) == 0
    with pytest.raises(SchedulingError):
        queue.remove(job)
    assert queue.ordered() == []
    queue.push(job)
    queue.clear()
    assert not queue


def test_queue_compares_jobs_by_identity(tiny_classes):
    queue = JobQueue()
    job = make_job(tiny_classes)
    twin = dataclasses.replace(job)
    assert twin == job and twin is not job
    queue.push(job)
    queue.push(twin)
    assert len(queue) == 2
    queue.remove(twin)
    assert twin not in queue
    assert [queued is job for queued in queue.ordered()] == [True]
    queue.remove(job)
    assert not queue
    with pytest.raises(SchedulingError):
        queue.remove(twin)


# ----------------------------------------------------------------- first fit
def test_first_fit_starts_jobs_in_priority_order(tiny_classes):
    pool = NodePool(8)
    scheduler = FirstFitScheduler(pool)
    a = make_job(tiny_classes, 0, priority=1.0)  # 4 nodes
    b = make_job(tiny_classes, 1, priority=0.0)  # 2 nodes
    scheduler.submit(a)
    scheduler.submit(b)
    started: list[Job] = []
    scheduler.dispatch(lambda job, nodes: started.append(job))
    assert started == [b, a]
    assert pool.num_free == 2
    assert len(pool.nodes_of(a)) == 4 and len(pool.nodes_of(b)) == 2
    assert len(scheduler.queue) == 0


def test_first_fit_skips_jobs_that_do_not_fit_but_fills_with_smaller_ones(tiny_classes):
    pool = NodePool(5)
    scheduler = FirstFitScheduler(pool)
    big = make_job(tiny_classes, 0, priority=0.0)  # 4 nodes
    big2 = make_job(tiny_classes, 0, priority=1.0)  # 4 nodes, will not fit
    small = make_job(tiny_classes, 1, priority=2.0)  # 2 nodes, fits after big... no: 5-4=1
    scheduler.submit(big)
    scheduler.submit(big2)
    scheduler.submit(small)
    started: list[Job] = []
    scheduler.dispatch(lambda job, nodes: started.append(job))
    # big starts (4 nodes), one node left: neither big2 nor small fits.
    assert started == [big]
    assert len(scheduler.queue) == 2


def test_dispatch_after_release_starts_waiting_jobs(tiny_classes):
    pool = NodePool(4)
    scheduler = FirstFitScheduler(pool)
    first = make_job(tiny_classes, 0, priority=0.0)
    second = make_job(tiny_classes, 0, priority=1.0)
    scheduler.submit(first)
    scheduler.submit(second)
    scheduler.dispatch(lambda job, nodes: None)
    assert len(scheduler.queue) == 1
    pool.release_owner(first)
    started: list[Job] = []
    scheduler.dispatch(lambda job, nodes: started.append(job))
    assert started == [second]


def test_callback_runs_after_allocation_is_recorded(tiny_classes):
    pool = NodePool(8)
    scheduler = FirstFitScheduler(pool)
    job = make_job(tiny_classes, 0)
    scheduler.submit(job)

    def check(started_job: Job, nodes: list[int]) -> None:
        assert pool.owner_of(nodes[0]) is started_job
        assert pool.nodes_of(started_job) == nodes

    scheduler.dispatch(check)
    assert len(scheduler.queue) == 0
    assert scheduler.pool is pool
