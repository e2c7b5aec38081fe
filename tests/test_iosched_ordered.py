"""Ordered and Ordered-NB FCFS token scheduling."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.iosched.base import IORequest
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.ordered_nb import OrderedNBScheduler
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.units import HOUR


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def io(engine) -> IOSubsystem:
    return IOSubsystem(engine, bandwidth_bytes_per_s=100.0)


def test_flags_differ_only_in_blocking_semantics():
    assert not OrderedScheduler.shares_bandwidth
    assert not OrderedNBScheduler.shares_bandwidth
    assert not OrderedScheduler.nonblocking_checkpoints
    assert OrderedNBScheduler.nonblocking_checkpoints


@pytest.mark.parametrize("scheduler_cls", [OrderedScheduler, OrderedNBScheduler])
def test_fcfs_order_is_respected(engine, io, tiny_classes, scheduler_cls):
    scheduler = scheduler_cls(engine, io, node_mtbf_s=1e6)
    order: list[str] = []
    jobs = [Job(app_class=tiny_classes[0], total_work_s=HOUR) for _ in range(3)]
    for index, job in enumerate(jobs):
        request = IORequest(
            job,
            IOKind.CHECKPOINT,
            200.0,
            submitted_at=0.0,
            on_complete=lambda r, i=index: order.append(f"job{i}"),
        )
        scheduler.submit(request)
    engine.run()
    assert order == ["job0", "job1", "job2"]


@pytest.mark.parametrize("scheduler_cls", [OrderedScheduler, OrderedNBScheduler])
def test_ordered_paper_example_two_jobs(engine, io, tiny_classes, scheduler_cls):
    """§3.2: two simultaneous transfers of volume V: one ends at V/beta, the
    other at 2V/beta, improving the average over the oblivious 2V/beta both."""
    scheduler = scheduler_cls(engine, io, node_mtbf_s=1e6)
    finish: dict[str, float] = {}
    job_a = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    job_b = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    scheduler.submit(IORequest(job_a, IOKind.INPUT, 500.0, 0.0, on_complete=lambda r: finish.setdefault("a", engine.now)))
    scheduler.submit(IORequest(job_b, IOKind.INPUT, 500.0, 0.0, on_complete=lambda r: finish.setdefault("b", engine.now)))
    engine.run()
    assert finish["a"] == pytest.approx(5.0)
    assert finish["b"] == pytest.approx(10.0)
    # Average completion time 7.5 < the oblivious 10.
    assert (finish["a"] + finish["b"]) / 2 < 10.0


def test_granted_transfer_gets_full_bandwidth_even_with_waiters(engine, io, tiny_classes):
    scheduler = OrderedScheduler(engine, io, node_mtbf_s=1e6)
    first_done: list[float] = []
    job_a = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    job_b = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    scheduler.submit(IORequest(job_a, IOKind.OUTPUT, 300.0, 0.0, on_complete=lambda r: first_done.append(engine.now)))
    scheduler.submit(IORequest(job_b, IOKind.OUTPUT, 300.0, 0.0))
    engine.run()
    # The first transfer is never slowed down by the waiter.
    assert first_done == [pytest.approx(3.0)]


def test_waiting_time_reported_on_request(engine, io, tiny_classes):
    scheduler = OrderedNBScheduler(engine, io, node_mtbf_s=1e6)
    job_a = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    job_b = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    first = IORequest(job_a, IOKind.CHECKPOINT, 400.0, 0.0)
    second = IORequest(job_b, IOKind.CHECKPOINT, 100.0, 0.0)
    scheduler.submit(first)
    scheduler.submit(second)
    assert second.waiting_for(2.0) == pytest.approx(2.0)
    engine.run()
    assert second.waited == pytest.approx(4.0)
    assert second.waiting_for(100.0) == pytest.approx(4.0)
