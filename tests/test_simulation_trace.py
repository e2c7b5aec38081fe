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
    events = recorder.events
    assert len(events) == 2
    assert {e.job_id for e in events} == {job.job_id}
    assert [e.kind for e in events] == [TraceEventType.JOB_START, TraceEventType.INPUT_DONE]
    assert [e.time for e in events if e.kind is TraceEventType.INPUT_DONE] == [5.0]
    assert events[0].detail == {"nodes": 4} and events[0].job_name == job.name


def test_checkpoint_intervals_from_recorded_events(tiny_classes):
    recorder = TraceRecorder()
    job = Job(app_class=tiny_classes[0], total_work_s=10 * HOUR)
    recorder.record(0.0, job, TraceEventType.JOB_START)
    recorder.record(10.0, job, TraceEventType.INPUT_DONE)
    recorder.record(3610.0, job, TraceEventType.CHECKPOINT_DONE)
    recorder.record(7210.0, job, TraceEventType.CHECKPOINT_DONE)
    # A job with no checkpoints contributes nothing.
    other = Job(app_class=tiny_classes[1], total_work_s=HOUR)
    recorder.record(7300.0, other, TraceEventType.JOB_START)
    assert recorder.achieved_checkpoint_intervals() == {job.job_id: pytest.approx([3600.0, 3600.0])}


def test_achieved_intervals_start_at_compute_and_keep_first_seen_order(tiny_classes):
    """The first interval runs from the job's first INPUT_DONE, else its
    JOB_START, else its first completion; jobs appear in the order of their
    first event, whatever kind it is."""
    recorder = TraceRecorder()
    no_input, no_start, with_input = (
        Job(app_class=tiny_classes[0], total_work_s=10 * HOUR) for _ in range(3)
    )
    recorder.record(0.0, with_input, TraceEventType.JOB_START)
    recorder.record(1.0, no_input, TraceEventType.JOB_START)
    recorder.record(2.0, no_start, TraceEventType.CHECKPOINT_REQUEST)
    recorder.record(4.0, with_input, TraceEventType.INPUT_DONE)
    recorder.record(6.0, no_start, TraceEventType.CHECKPOINT_DONE)
    recorder.record(9.0, with_input, TraceEventType.INPUT_DONE)
    recorder.record(11.0, no_input, TraceEventType.CHECKPOINT_DONE)
    recorder.record(14.0, with_input, TraceEventType.CHECKPOINT_DONE)
    recorder.record(16.0, no_start, TraceEventType.CHECKPOINT_DONE)
    intervals = recorder.achieved_checkpoint_intervals()
    assert list(intervals) == [with_input.job_id, no_input.job_id, no_start.job_id]
    assert intervals == {
        with_input.job_id: [10.0],
        no_input.job_id: [10.0],
        no_start.job_id: [0.0, 10.0],
    }


def test_simulation_collects_trace_when_requested(tiny_config, tiny_classes):
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0, collect_trace=True)
    jobs = [Job(app_class=tiny_classes[0], total_work_s=3 * HOUR, priority=0.0)]
    trace = FailureTrace([FailureEvent(1.5 * HOUR, 0)], horizon=config.horizon_s)
    sim = Simulation(config, jobs=jobs, failure_trace=trace)
    result = sim.run()

    assert sim.trace is not None
    kinds = {event.kind for event in sim.trace.events}
    assert TraceEventType.JOB_START in kinds
    assert TraceEventType.INPUT_DONE in kinds
    assert TraceEventType.CHECKPOINT_DONE in kinds
    assert TraceEventType.JOB_FAILED in kinds
    assert TraceEventType.RESTART_SUBMITTED in kinds
    assert TraceEventType.JOB_COMPLETE in kinds
    # The restart appears as a separate job id in the trace.
    assert len({event.job_id for event in sim.trace.events}) >= 2
    # Achieved checkpoint intervals are close to (and not shorter than) the
    # requested fixed period minus the commit time.
    intervals = sim.trace.achieved_checkpoint_intervals()
    assert intervals
    for values in intervals.values():
        for interval in values:
            assert interval >= 0.9 * config.fixed_period_s
    assert result.checkpoints_completed == sum(
        event.kind is TraceEventType.CHECKPOINT_DONE for event in sim.trace.events
    )


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
    for event in sim.trace.events:
        if event.kind in completions:
            assert event.detail["waited"] >= 0.0
            assert event.detail["duration"] > 0.0
            assert event.detail["volume"] > 0.0
            seen_kinds.add(event.kind)
        elif event.kind is TraceEventType.CHECKPOINT_DONE:
            assert event.detail["waited"] >= 0.0
            assert event.detail["commit_time"] > 0.0
    # The toy classes perform no routine I/O; input and output must appear.
    assert {TraceEventType.INPUT_DONE, TraceEventType.OUTPUT_DONE} <= seen_kinds


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
