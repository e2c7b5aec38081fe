"""Per-job execution traces (repro.simulation.trace)."""

from __future__ import annotations

import pytest

from repro.apps.job import Job
from repro.platform.failures import FailureEvent, FailureTrace
from repro.simulation.simulator import Simulation
from repro.simulation.trace import TraceEventType, TraceRecorder
from repro.units import DAY, HOUR


def test_recorder_basic_bookkeeping(tiny_classes):
    recorder = TraceRecorder()
    job = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    recorder.record(0.0, job, TraceEventType.JOB_START, nodes=4)
    recorder.record(5.0, job, TraceEventType.INPUT_DONE)
    assert len(recorder) == 2
    assert recorder.job_ids() == [job.job_id]
    assert [e.kind for e in recorder.for_job(job.job_id)] == [
        TraceEventType.JOB_START,
        TraceEventType.INPUT_DONE,
    ]
    assert recorder.of_kind(TraceEventType.INPUT_DONE)[0].time == 5.0


def test_checkpoint_intervals_from_recorded_events(tiny_classes):
    recorder = TraceRecorder()
    job = Job(app_class=tiny_classes[0], total_work_s=10 * HOUR)
    recorder.record(0.0, job, TraceEventType.JOB_START)
    recorder.record(10.0, job, TraceEventType.INPUT_DONE)
    recorder.record(3610.0, job, TraceEventType.CHECKPOINT_DONE)
    recorder.record(7210.0, job, TraceEventType.CHECKPOINT_DONE)
    intervals = recorder.checkpoint_intervals(job.job_id)
    assert intervals == pytest.approx([3600.0, 3600.0])
    assert recorder.achieved_checkpoint_intervals() == {job.job_id: pytest.approx([3600.0, 3600.0])}
    # A job with no checkpoints contributes nothing.
    other = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    assert recorder.checkpoint_intervals(other.job_id) == []


def test_simulation_collects_trace_when_requested(tiny_config, tiny_classes):
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0, collect_trace=True)
    jobs = [Job(app_class=tiny_classes[0], total_work_s=3 * HOUR, priority=0.0)]
    trace = FailureTrace([FailureEvent(1.5 * HOUR, 0)], horizon=config.horizon_s)
    sim = Simulation(config, jobs=jobs, failure_trace=trace)
    result = sim.run()

    assert sim.trace is not None
    kinds = {event.kind for event in sim.trace}
    assert TraceEventType.JOB_START in kinds
    assert TraceEventType.INPUT_DONE in kinds
    assert TraceEventType.CHECKPOINT_DONE in kinds
    assert TraceEventType.JOB_FAILED in kinds
    assert TraceEventType.RESTART_SUBMITTED in kinds
    assert TraceEventType.JOB_COMPLETE in kinds
    # The restart appears as a separate job id in the trace.
    assert len(sim.trace.job_ids()) >= 2
    # Achieved checkpoint intervals are close to (and not shorter than) the
    # requested fixed period minus the commit time.
    intervals = sim.trace.achieved_checkpoint_intervals()
    assert intervals
    for values in intervals.values():
        for interval in values:
            assert interval >= 0.9 * config.fixed_period_s
    assert result.checkpoints_completed == len(sim.trace.of_kind(TraceEventType.CHECKPOINT_DONE))


def test_simulation_trace_disabled_by_default(tiny_config):
    sim = Simulation(tiny_config())
    assert sim.trace is None
    sim.run()
    assert sim.trace is None


def test_io_completion_events_carry_wait_and_duration_details(tiny_config, tiny_classes):
    """Completion events record queue wait, transfer duration and volume —
    the structured inputs of the waste drill-down."""
    config = tiny_config(
        "ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0, collect_trace=True
    )
    jobs = [
        Job(app_class=tiny_classes[0], total_work_s=2 * HOUR, priority=0.0),
        Job(app_class=tiny_classes[1], total_work_s=1 * HOUR, priority=1.0),
    ]
    sim = Simulation(config, jobs=jobs, failure_trace=FailureTrace([], horizon=config.horizon_s))
    sim.run()
    assert sim.trace is not None

    completions = (
        TraceEventType.INPUT_DONE,
        TraceEventType.REGULAR_IO_DONE,
        TraceEventType.OUTPUT_DONE,
    )
    seen_kinds = set()
    for kind in completions:
        for event in sim.trace.of_kind(kind):
            assert event.detail["waited"] >= 0.0
            assert event.detail["duration"] > 0.0
            assert event.detail["volume"] > 0.0
            seen_kinds.add(kind)
    # The toy classes perform no routine I/O; input and output must appear.
    assert {TraceEventType.INPUT_DONE, TraceEventType.OUTPUT_DONE} <= seen_kinds
    for event in sim.trace.of_kind(TraceEventType.CHECKPOINT_DONE):
        assert event.detail["waited"] >= 0.0
        assert event.detail["commit_time"] > 0.0


def test_io_wait_by_job_counts_each_wait_once(tiny_classes):
    recorder = TraceRecorder()
    job = Job(app_class=tiny_classes[0], total_work_s=HOUR)
    recorder.record(0.0, job, TraceEventType.JOB_START)
    recorder.record(10.0, job, TraceEventType.INPUT_DONE, waited=4.0, duration=6.0)
    # CHECKPOINT_START and CHECKPOINT_DONE carry the *same* wait: only the
    # completion may be counted.
    recorder.record(20.0, job, TraceEventType.CHECKPOINT_START, waited=3.0)
    recorder.record(25.0, job, TraceEventType.CHECKPOINT_DONE, waited=3.0, commit_time=5.0)
    recorder.record(30.0, job, TraceEventType.OUTPUT_DONE, waited=1.5, duration=2.0)
    assert recorder.io_wait_by_job() == {job.job_id: pytest.approx(8.5)}
