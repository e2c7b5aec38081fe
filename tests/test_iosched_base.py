"""IORequest bookkeeping and the shared scheduler machinery (repro.iosched.base)."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.errors import SchedulingError
from repro.iosched.base import IORequest
from repro.iosched.ordered import OrderedScheduler
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
def job(tiny_classes) -> Job:
    return Job(app_class=tiny_classes[0], total_work_s=HOUR)


def make_request(job, kind=IOKind.INPUT, volume=500.0, submitted=0.0, **callbacks) -> IORequest:
    return IORequest(job=job, kind=kind, volume_bytes=volume, submitted_at=submitted, **callbacks)


def test_request_initial_state(job):
    request = make_request(job)
    assert request.granted_at is None and not request.cancelled
    assert not request.in_flight
    assert request.waited == 0.0
    assert request.waiting_for(12.0) == 12.0
    assert request.transfer is None


def test_request_rejects_negative_volume(job):
    with pytest.raises(SchedulingError):
        make_request(job, volume=-1.0)


def test_request_lifecycle_through_scheduler(engine, io, job):
    scheduler = OrderedScheduler(engine, io, node_mtbf_s=1e6)
    granted: list[float] = []
    completed: list[float] = []
    request = make_request(
        job,
        on_granted=lambda r: granted.append(engine.now),
        on_complete=lambda r: completed.append(engine.now),
    )
    scheduler.submit(request)
    engine.run()
    assert granted == [0.0]
    assert completed == [pytest.approx(5.0)]
    assert request.granted_at == 0.0
    assert request.completed_at == pytest.approx(5.0)
    assert not request.in_flight
    assert scheduler.pending_requests() == () and scheduler.active_requests() == ()
    assert request.waited == 0.0


def test_token_scheduler_serializes_requests(engine, io, job, tiny_classes):
    scheduler = OrderedScheduler(engine, io, node_mtbf_s=1e6)
    other = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    completions: list[str] = []
    first = make_request(job, volume=500.0, on_complete=lambda r: completions.append("first"))
    second = make_request(other, volume=500.0, on_complete=lambda r: completions.append("second"))
    scheduler.submit(first)
    scheduler.submit(second)
    # Only one transfer is in flight at a time.
    assert len(scheduler.active_requests()) == 1
    assert len(scheduler.pending_requests()) == 1
    engine.run()
    assert completions == ["first", "second"]
    # FCFS: the second request waited exactly the service time of the first.
    assert second.waited == pytest.approx(5.0)
    assert first.completed_at == pytest.approx(5.0)
    assert second.completed_at == pytest.approx(10.0)


def test_cancel_job_removes_pending_and_aborts_active(engine, io, job, tiny_classes):
    scheduler = OrderedScheduler(engine, io, node_mtbf_s=1e6)
    other = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    done: list[str] = []
    active = make_request(job, volume=1000.0, on_complete=lambda r: done.append("active"))
    waiting = make_request(job, volume=1000.0, on_complete=lambda r: done.append("waiting"))
    unaffected = make_request(other, volume=100.0, on_complete=lambda r: done.append("other"))
    scheduler.submit(active)
    scheduler.submit(waiting)
    scheduler.submit(unaffected)
    engine.schedule(1.0, lambda: scheduler.cancel_job(job))
    engine.run()
    assert done == ["other"]
    assert active.cancelled and waiting.cancelled
    # After the cancellation the third request got the token immediately.
    assert unaffected.granted_at == pytest.approx(1.0)


def test_cancelled_transfer_does_not_fire_completion(engine, io, job):
    scheduler = OrderedScheduler(engine, io, node_mtbf_s=1e6)
    fired: list[str] = []
    request = make_request(job, on_complete=lambda r: fired.append("done"))
    scheduler.submit(request)
    scheduler.cancel_job(job)
    engine.run()
    assert fired == []


def test_scheduler_requires_positive_mtbf(engine, io):
    with pytest.raises(SchedulingError):
        OrderedScheduler(engine, io, node_mtbf_s=0.0)


def test_a_selection_outside_the_pending_pool_is_refused(engine, io, job, tiny_classes):
    stranger = make_request(Job(app_class=tiny_classes[1], total_work_s=HOUR))

    class Rogue(OrderedScheduler):
        def _select_next(self, pending):
            return stranger

    with pytest.raises(SchedulingError, match="not in the pending pool"):
        Rogue(engine, io, node_mtbf_s=1e6).submit(make_request(job))
