"""Regular (non-checkpoint) application I/O during the compute phase.

The APEX table does not quantify routine I/O, but the model supports it
(§2: "regular I/O operations are evenly distributed over its makespan").
These tests exercise the code path with explicit routine volumes.
"""

from __future__ import annotations

import pytest

from repro.apps.app_class import ApplicationClass
from repro.apps.job import Job
from repro.platform.failures import FailureEvent, FailureTrace
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.simulation.trace import TraceEventType
from repro.units import DAY, GB, HOUR


@pytest.fixture
def io_heavy_class(tiny_platform) -> ApplicationClass:
    return ApplicationClass(
        name="io-heavy",
        nodes=4,
        work_s=2 * HOUR,
        input_bytes=2 * GB,
        output_bytes=4 * GB,
        checkpoint_bytes=8 * GB,
        routine_io_bytes=16 * GB,
        workload_share=1.0,
    )


def make_config(tiny_platform, io_heavy_class, strategy: str, chunks: int = 4, **overrides):
    parameters = dict(
        platform=tiny_platform,
        classes=(io_heavy_class,),
        strategy=strategy,
        horizon_s=1 * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        seed=1,
        routine_io_chunks=chunks,
        collect_trace=True,
    )
    parameters.update(overrides)
    return SimulationConfig(**parameters)


@pytest.mark.parametrize("strategy", ["oblivious-fixed", "ordered-fixed", "orderednb-daly", "least-waste"])
def test_routine_io_chunks_are_performed_and_accounted(tiny_platform, io_heavy_class, strategy):
    config = make_config(tiny_platform, io_heavy_class, strategy)
    sim = Simulation(
        config,
        jobs=[Job(app_class=io_heavy_class, total_work_s=2 * HOUR)],
        failure_trace=FailureTrace([], config.horizon_s),
    )
    result = sim.run()
    assert result.jobs_completed == 1
    # All four chunks were transferred.
    kinds = [event.kind for event in sim.trace.events]
    assert kinds.count(TraceEventType.REGULAR_IO_DONE) == 4
    # Their un-dilated time is useful (base I/O includes input + output + routine).
    bandwidth = config.platform.io_bandwidth_bytes_per_s
    expected_base = (
        io_heavy_class.input_bytes + io_heavy_class.output_bytes + io_heavy_class.routine_io_bytes
    ) / bandwidth * io_heavy_class.nodes
    assert result.breakdown.base_io == pytest.approx(expected_base, rel=1e-6)


def test_routine_io_disabled_with_zero_chunks(tiny_platform, io_heavy_class):
    config = make_config(tiny_platform, io_heavy_class, "ordered-fixed", chunks=0)
    sim = Simulation(
        config,
        jobs=[Job(app_class=io_heavy_class, total_work_s=2 * HOUR)],
        failure_trace=FailureTrace([], config.horizon_s),
    )
    result = sim.run()
    assert result.jobs_completed == 1
    kinds = [event.kind for event in sim.trace.events]
    assert kinds.count(TraceEventType.REGULAR_IO_DONE) == 0


def test_completion_time_includes_routine_io(tiny_platform, io_heavy_class):
    config = make_config(tiny_platform, io_heavy_class, "ordered-fixed")
    sim = Simulation(
        config,
        jobs=[Job(app_class=io_heavy_class, total_work_s=2 * HOUR)],
        failure_trace=FailureTrace([], config.horizon_s),
    )
    result = sim.run()
    job = sim.jobs[0]
    bandwidth = config.platform.io_bandwidth_bytes_per_s
    io_time = (
        io_heavy_class.input_bytes + io_heavy_class.output_bytes + io_heavy_class.routine_io_bytes
    ) / bandwidth
    # The run's one job took every checkpoint the run counts.
    ckpt_time = result.checkpoints_completed * io_heavy_class.checkpoint_bytes / bandwidth
    assert job.end_time == pytest.approx(2 * HOUR + io_time + ckpt_time, rel=1e-6)


def test_checkpoint_due_during_routine_io_is_deferred_not_lost(tiny_platform, io_heavy_class):
    """If the checkpoint period elapses while the job is blocked on routine
    I/O, the checkpoint is taken right after the I/O completes."""
    config = make_config(
        tiny_platform,
        io_heavy_class,
        "ordered-fixed",
        chunks=1,
        # Make the routine transfer very long by shrinking the bandwidth, so
        # the hourly checkpoint falls due in the middle of it.
        platform=tiny_platform.with_bandwidth(4e6),  # 4 MB/s
        horizon_s=3 * DAY,
    )
    sim = Simulation(
        config,
        jobs=[Job(app_class=io_heavy_class, total_work_s=2 * HOUR)],
        failure_trace=FailureTrace([], 3 * DAY),
    )
    result = sim.run()
    assert result.jobs_completed == 1
    assert result.checkpoints_completed >= 1


def test_failure_during_routine_io_restarts_cleanly(tiny_platform, io_heavy_class):
    config = make_config(tiny_platform, io_heavy_class, "ordered-daly")
    # The single chunk falls at 40% of the work (~48 min); fail shortly after
    # the work starts so the job is likely in or near its routine I/O.
    trace = FailureTrace([FailureEvent(0.5 * HOUR, 0)], horizon=config.horizon_s)
    sim = Simulation(
        config,
        jobs=[Job(app_class=io_heavy_class, total_work_s=2 * HOUR)],
        failure_trace=trace,
    )
    result = sim.run()
    assert result.jobs_failed == 1
    assert result.restarts_submitted == 1
    assert result.jobs_completed == 1
