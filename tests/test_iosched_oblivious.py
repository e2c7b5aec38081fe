"""Oblivious (uncoordinated, interfering) I/O scheduling."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.iosched.base import IORequest
from repro.iosched.oblivious import ObliviousScheduler
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.units import HOUR


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def io(engine) -> IOSubsystem:
    return IOSubsystem(engine, bandwidth_bytes_per_s=100.0)


@pytest.fixture
def scheduler(engine, io) -> ObliviousScheduler:
    return ObliviousScheduler(engine, io, node_mtbf_s=1e6)


def make_job(tiny_classes, index=0):
    return Job(app_class=tiny_classes[index], total_work_s=HOUR)


def test_flags():
    assert ObliviousScheduler.shares_bandwidth
    assert not ObliviousScheduler.nonblocking_checkpoints


def test_requests_start_immediately_and_interfere(engine, io, scheduler, tiny_classes):
    job_a = make_job(tiny_classes, 0)  # 4 nodes
    job_b = make_job(tiny_classes, 0)  # 4 nodes -> equal shares
    finish: dict[str, float] = {}
    a = IORequest(job_a, IOKind.CHECKPOINT, 500.0, 0.0, on_complete=lambda r: finish.setdefault("a", engine.now))
    b = IORequest(job_b, IOKind.CHECKPOINT, 500.0, 0.0, on_complete=lambda r: finish.setdefault("b", engine.now))
    scheduler.submit(a)
    scheduler.submit(b)
    # Nothing waits under oblivious scheduling.
    assert scheduler.pending_requests() == ()
    assert len(scheduler.active_requests()) == 2
    assert a.granted_at == 0.0 and b.granted_at == 0.0
    engine.run()
    # Two equal-weight transfers of 500 B at 100 B/s aggregate: both dilated
    # to 10 s instead of 5 s alone — the CR-CR interference of §1.
    assert finish["a"] == pytest.approx(10.0)
    assert finish["b"] == pytest.approx(10.0)


def test_interference_is_weighted_by_node_count(engine, io, scheduler, tiny_classes):
    big = make_job(tiny_classes, 0)  # 4 nodes
    small = make_job(tiny_classes, 1)  # 2 nodes
    finish: dict[str, float] = {}
    scheduler.submit(IORequest(big, IOKind.INPUT, 400.0, 0.0, on_complete=lambda r: finish.setdefault("big", engine.now)))
    scheduler.submit(IORequest(small, IOKind.INPUT, 400.0, 0.0, on_complete=lambda r: finish.setdefault("small", engine.now)))
    engine.run()
    # big gets 2/3 of the bandwidth while both are running.
    assert finish["big"] == pytest.approx(6.0)
    assert finish["small"] < finish["big"] + 6.0  # small finishes later overall
    assert finish["small"] == pytest.approx(8.0)


def test_cancel_job_aborts_only_that_jobs_transfers(engine, io, scheduler, tiny_classes):
    victim = make_job(tiny_classes, 0)
    survivor = make_job(tiny_classes, 0)
    finish: dict[str, float] = {}
    scheduler.submit(IORequest(victim, IOKind.INPUT, 1000.0, 0.0, on_complete=lambda r: finish.setdefault("victim", engine.now)))
    scheduler.submit(IORequest(survivor, IOKind.INPUT, 1000.0, 0.0, on_complete=lambda r: finish.setdefault("survivor", engine.now)))
    engine.schedule(5.0, lambda: scheduler.cancel_job(victim))
    engine.run()
    assert "victim" not in finish
    assert finish["survivor"] == pytest.approx(12.5)
    assert scheduler.active_requests() == ()


def test_completed_requests_leave_the_active_set(engine, io, scheduler, tiny_classes):
    job = make_job(tiny_classes)
    scheduler.submit(IORequest(job, IOKind.OUTPUT, 100.0, 0.0))
    engine.run()
    assert scheduler.active_requests() == ()
