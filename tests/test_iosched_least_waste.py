"""Least-Waste token scheduling (repro.iosched.least_waste)."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.iosched.base import IORequest
from repro.iosched.least_waste import LeastWasteScheduler
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.units import HOUR


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def io(engine) -> IOSubsystem:
    return IOSubsystem(engine, bandwidth_bytes_per_s=100.0)


def test_flags():
    assert LeastWasteScheduler.nonblocking_checkpoints
    assert not LeastWasteScheduler.shares_bandwidth


def test_serves_blocking_io_of_big_job_before_checkpoint_when_failures_rare(
    engine, io, tiny_classes
):
    # Huge MTBF: the waste of keeping a big job idle dominates the failure
    # exposure of a postponed checkpoint, so the blocking I/O should win even
    # though the checkpoint request arrived first.
    scheduler = LeastWasteScheduler(engine, io, node_mtbf_s=1e12)
    order: list[str] = []
    ckpt_job = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    ckpt_job.last_capture_time = 0.0
    io_job = Job(app_class=tiny_classes[0], total_work_s=HOUR)

    blocker = IORequest(ckpt_job, IOKind.CHECKPOINT, 1000.0, 0.0, on_complete=lambda r: order.append("ckpt"))
    waiting_io = IORequest(io_job, IOKind.INPUT, 1000.0, 0.0, on_complete=lambda r: order.append("input"))
    occupant = IORequest(io_job, IOKind.OUTPUT, 100.0, 0.0, on_complete=lambda r: order.append("warmup"))

    # Occupy the token first so that both contenders are pending together.
    scheduler.submit(occupant)
    scheduler.submit(blocker)
    scheduler.submit(waiting_io)
    engine.run()
    assert order[0] == "warmup"
    assert order[1] == "input"
    assert order[2] == "ckpt"


def test_serves_heavily_exposed_checkpoint_first_when_failures_frequent(
    engine, io, tiny_classes
):
    # Tiny MTBF and a checkpoint that has not been taken for a long time: the
    # expected lost work dominates, so the checkpoint should be served before
    # the (small) blocking I/O of a small job.
    scheduler = LeastWasteScheduler(engine, io, node_mtbf_s=5_000.0)
    order: list[str] = []
    exposed = Job(app_class=tiny_classes[0], total_work_s=10 * HOUR)
    exposed.last_capture_time = 0.0
    small = Job(app_class=tiny_classes[1], total_work_s=HOUR)

    occupant = IORequest(small, IOKind.OUTPUT, 100.0, 0.0, on_complete=lambda r: order.append("warmup"))
    scheduler.submit(occupant)
    # By the time the token frees (t=1), the exposed job has gone 4 hours
    # without a checkpoint (captured at t=-...): emulate by submitting late.
    engine.schedule(0.5, lambda: scheduler.submit(
        IORequest(exposed, IOKind.CHECKPOINT, 500.0, 0.5, on_complete=lambda r: order.append("ckpt"))
    ))
    engine.schedule(0.5, lambda: scheduler.submit(
        IORequest(small, IOKind.INPUT, 500.0, 0.5, on_complete=lambda r: order.append("input"))
    ))
    exposed.last_capture_time = -4 * HOUR  # long exposure window
    engine.run()
    assert order[0] == "warmup"
    assert order[1] == "ckpt"
    assert order[2] == "input"


def test_single_candidate_served_immediately(engine, io, tiny_classes):
    scheduler = LeastWasteScheduler(engine, io, node_mtbf_s=1e6)
    job = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    done: list[float] = []
    scheduler.submit(IORequest(job, IOKind.CHECKPOINT, 200.0, 0.0, on_complete=lambda r: done.append(engine.now)))
    engine.run()
    assert done == [pytest.approx(2.0)]


def test_checkpoint_candidate_uses_submission_time_when_never_captured(engine, io, tiny_classes):
    # A job whose last_capture_time is unset must not crash the scoring.
    scheduler = LeastWasteScheduler(engine, io, node_mtbf_s=1e6)
    job_a = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    job_b = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    assert job_a.last_capture_time is None
    done: list[str] = []
    scheduler.submit(IORequest(job_a, IOKind.CHECKPOINT, 200.0, 0.0, on_complete=lambda r: done.append("a")))
    scheduler.submit(IORequest(job_b, IOKind.CHECKPOINT, 200.0, 0.0, on_complete=lambda r: done.append("b")))
    engine.run()
    assert sorted(done) == ["a", "b"]


def test_zero_volume_request_handled(engine, io, tiny_classes):
    scheduler = LeastWasteScheduler(engine, io, node_mtbf_s=1e6)
    job = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    done: list[str] = []
    scheduler.submit(IORequest(job, IOKind.INPUT, 0.0, 0.0, on_complete=lambda r: done.append("zero")))
    engine.run()
    assert done == ["zero"]


def test_a_tiny_mtbf_bias_still_runs():
    """``mtbf_bias=1e-308`` overflows every checkpoint score to ``inf`` on
    this smoke cell; the run must still complete."""
    from repro.scenarios.presets import smoke_campaign
    from repro.simulation.simulator import Simulation
    from repro.stats.montecarlo import derive_seeds

    spec = "least-waste[mtbf_bias=1e-308]"
    (scenario,) = [
        s for s in smoke_campaign(strategies=[spec]).scenarios() if s.name == "io=4,mtbf=short"
    ]
    config = scenario.config(spec).with_seed(derive_seeds(0, 1)[0])
    result = Simulation(config).run()
    assert result.strategy == spec
    assert result.checkpoints_completed > 0
