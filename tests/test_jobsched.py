"""First-fit placement of pending jobs (repro.jobsched)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.job import Job
from repro.errors import SchedulingError
from repro.jobsched.first_fit import FirstFitScheduler
from repro.platform.nodes import NodePool
from repro.units import HOUR


def make_job(tiny_classes, index=0, **kwargs) -> Job:
    return Job(app_class=tiny_classes[index], total_work_s=HOUR, **kwargs)


def dispatched(scheduler: FirstFitScheduler) -> list[Job]:
    """The jobs one dispatch starts, in start order."""
    started: list[Job] = []
    scheduler.dispatch(started.append)
    return started


# ------------------------------------------------------------ pending jobs
def test_jobs_start_by_priority_then_submit_time_then_id(tiny_classes):
    scheduler = FirstFitScheduler(NodePool(16))
    late = make_job(tiny_classes, priority=0.0, submit_time=10.0)
    early = make_job(tiny_classes, priority=0.0, submit_time=5.0)
    urgent = make_job(tiny_classes, priority=-1.0, submit_time=20.0)
    # Equal priority and submit time: the lower id (created first) wins.
    first, second = (make_job(tiny_classes, 1, priority=0.0, submit_time=5.0) for _ in range(2))
    for job in (second, late, early, urgent, first):
        scheduler.submit(job)
    assert dispatched(scheduler) == [urgent, early, first, second, late]


def test_a_job_submitted_twice_is_refused(tiny_classes):
    scheduler = FirstFitScheduler(NodePool(8))
    job = make_job(tiny_classes)
    scheduler.submit(job)
    with pytest.raises(SchedulingError, match="already queued"):
        scheduler.submit(job)
    assert dispatched(scheduler) == [job]
    assert dispatched(scheduler) == []


def test_two_equal_jobs_are_each_queued_and_started(tiny_classes):
    pool = NodePool(8)
    scheduler = FirstFitScheduler(pool)
    job = make_job(tiny_classes)
    twin = dataclasses.replace(job)
    assert twin == job and twin is not job
    scheduler.submit(job)
    scheduler.submit(twin)
    started = dispatched(scheduler)
    assert len(started) == 2 and started[0] is job and started[1] is twin
    assert pool.owner_of(0) is job and pool.owner_of(4) is twin


# ----------------------------------------------------------------- first fit
def test_first_fit_starts_jobs_in_priority_order(tiny_classes):
    pool = NodePool(8)
    scheduler = FirstFitScheduler(pool)
    a = make_job(tiny_classes, 0, priority=1.0)  # 4 nodes
    b = make_job(tiny_classes, 1, priority=0.0)  # 2 nodes
    scheduler.submit(a)
    scheduler.submit(b)
    assert dispatched(scheduler) == [b, a]
    assert pool.num_free == 2
    owners = [pool.owner_of(node) for node in range(8)]
    assert owners == [b, b, a, a, a, a, None, None]
    assert dispatched(scheduler) == []


def test_first_fit_skips_jobs_that_do_not_fit_but_fills_with_smaller_ones(tiny_classes):
    pool = NodePool(5)
    scheduler = FirstFitScheduler(pool)
    big = make_job(tiny_classes, 0, priority=0.0)  # 4 nodes
    big2 = make_job(tiny_classes, 0, priority=1.0)  # 4 nodes, will not fit
    small = make_job(tiny_classes, 1, priority=2.0)  # 2 nodes: 5 - 4 = 1 free
    scheduler.submit(big)
    scheduler.submit(big2)
    scheduler.submit(small)
    # big starts (4 nodes), one node left: neither big2 nor small fits.
    assert dispatched(scheduler) == [big]
    # Both still wait, and start in order as nodes free up.
    pool.release_owner(big)
    assert dispatched(scheduler) == [big2]
    pool.release_owner(big2)
    assert dispatched(scheduler) == [small]


def test_dispatch_after_release_starts_waiting_jobs(tiny_classes):
    pool = NodePool(4)
    scheduler = FirstFitScheduler(pool)
    first = make_job(tiny_classes, 0, priority=0.0)
    second = make_job(tiny_classes, 0, priority=1.0)
    scheduler.submit(first)
    scheduler.submit(second)
    assert dispatched(scheduler) == [first]
    assert dispatched(scheduler) == []
    pool.release_owner(first)
    assert dispatched(scheduler) == [second]


def test_callback_runs_after_allocation_is_recorded(tiny_classes):
    pool = NodePool(8)
    scheduler = FirstFitScheduler(pool)
    job = make_job(tiny_classes, 0)
    scheduler.submit(job)
    checked: list[Job] = []

    def check(started_job: Job) -> None:
        assert pool.owner_of(0) is started_job
        assert pool.num_free == 8 - started_job.nodes
        checked.append(started_job)

    scheduler.dispatch(check)
    assert checked == [job]
    assert dispatched(scheduler) == []
