"""Integration tests of the full simulator (repro.simulation.simulator)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps.job import Job
from repro.errors import SimulationError
from repro.iosched.base import IOScheduler
from repro.platform.failures import FailureEvent, FailureTrace
from repro.simulation.simulator import Simulation, run_simulation
from repro.simulation.trace import TraceEventType
from repro.units import DAY, HOUR


def no_failures(horizon: float) -> FailureTrace:
    return FailureTrace([], horizon=horizon)


def single_job(tiny_classes, work_s=2 * HOUR, index=0) -> list[Job]:
    return [Job(app_class=tiny_classes[index], total_work_s=work_s, priority=0.0)]


# ------------------------------------------------------------ failure-free runs
@pytest.mark.parametrize("strategy", ["oblivious-fixed", "ordered-daly", "least-waste"])
def test_failure_free_single_job_completes(tiny_config, tiny_classes, strategy):
    config = tiny_config(strategy, horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    sim = Simulation(
        config,
        jobs=single_job(tiny_classes),
        failure_trace=no_failures(config.horizon_s),
    )
    result = sim.run()
    job = sim.jobs[0]
    assert job.end_time is not None and job.end_time < config.horizon_s
    assert job.work_done_s == pytest.approx(job.total_work_s)
    assert result.jobs_completed == 1
    assert result.jobs_failed == 0
    assert result.restarts_submitted == 0
    assert result.failures_effective == 0
    # Without failures there is no recovery and no lost work.
    assert result.breakdown.recovery == 0.0
    assert result.breakdown.lost_work == 0.0
    assert result.breakdown.compute > 0.0
    assert 0.0 <= result.waste_ratio < 0.5


def test_failure_free_job_checkpoints_periodically(tiny_config, tiny_classes):
    # Fixed 1h period, 2h of work -> at least one checkpoint gets taken.
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    sim = Simulation(
        config, jobs=single_job(tiny_classes), failure_trace=no_failures(config.horizon_s)
    )
    result = sim.run()
    assert result.checkpoints_completed >= 1
    assert result.breakdown.checkpoint > 0.0
    job = sim.jobs[0]
    assert job.work_protected_s > 0.0


def test_completion_time_accounts_for_io_and_checkpoints(tiny_config, tiny_classes):
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    sim = Simulation(
        config, jobs=single_job(tiny_classes), failure_trace=no_failures(config.horizon_s)
    )
    result = sim.run()
    job = sim.jobs[0]
    alpha = tiny_classes[0]
    bandwidth = config.platform.io_bandwidth_bytes_per_s
    base_io = (alpha.input_bytes + alpha.output_bytes) / bandwidth
    ckpt_time = alpha.checkpoint_bytes / bandwidth
    # The run's one job took every checkpoint the run counts.
    expected_min = job.total_work_s + base_io + result.checkpoints_completed * ckpt_time
    assert job.end_time == pytest.approx(expected_min, rel=1e-6)


# ------------------------------------------------------------ failures & restarts
def test_single_failure_triggers_restart_and_recovery(tiny_config, tiny_classes):
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    # The job runs on nodes [0..3]; fail node 0 in the middle of its second hour.
    trace = FailureTrace([FailureEvent(1.5 * HOUR, 0)], horizon=config.horizon_s)
    sim = Simulation(config, jobs=single_job(tiny_classes), failure_trace=trace)
    result = sim.run()

    original = sim.jobs[0]
    assert original.end_time == 1.5 * HOUR
    [restart] = sim.restarts
    assert restart.parent_id == original.job_id
    assert restart.end_time is not None
    assert result.jobs_failed == 1
    assert result.restarts_submitted == 1
    assert result.failures_effective == 1
    # The first hourly checkpoint protected ~1h of work, so the lost work is
    # bounded by the exposure window and some work had to be re-done.
    assert result.breakdown.lost_work > 0.0
    assert result.breakdown.recovery > 0.0
    # The restart finished the remaining work within the horizon.
    assert result.jobs_completed == 1


def test_failure_on_idle_node_is_harmless(tiny_config, tiny_classes):
    config = tiny_config("least-waste", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    # Node 15 is never allocated to the single 4-node job.
    trace = FailureTrace([FailureEvent(1 * HOUR, 15)], horizon=config.horizon_s)
    sim = Simulation(config, jobs=single_job(tiny_classes), failure_trace=trace)
    result = sim.run()
    assert result.failures_total == 1
    assert result.failures_effective == 0
    assert result.jobs_failed == 0
    assert result.jobs_completed == 1


def test_failure_before_first_checkpoint_restarts_from_scratch(tiny_config, tiny_classes):
    config = tiny_config("ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
    trace = FailureTrace([FailureEvent(0.5 * HOUR, 1)], horizon=config.horizon_s)
    sim = Simulation(config, jobs=single_job(tiny_classes), failure_trace=trace)
    result = sim.run()
    original = sim.jobs[0]
    assert original.work_protected_s == 0.0
    assert result.restarts_submitted == 1
    # No checkpoint existed, so the restart re-reads the original input size
    # and re-does all the work; it still completes within the horizon.
    assert result.jobs_completed == 1


def test_repeated_failures_spawn_repeated_restarts(tiny_config, tiny_classes):
    config = tiny_config("orderednb-daly", horizon_s=2 * DAY, warmup_s=0.0, cooldown_s=0.0)
    trace = FailureTrace(
        [FailureEvent(1.0 * HOUR, 0), FailureEvent(2.5 * HOUR, 2), FailureEvent(4.0 * HOUR, 1)],
        horizon=config.horizon_s,
    )
    sim = Simulation(config, jobs=single_job(tiny_classes, work_s=6 * HOUR), failure_trace=trace)
    result = sim.run()
    assert result.failures_effective >= 1
    assert result.restarts_submitted == result.jobs_failed
    # Work is conserved: eventually one incarnation finishes.
    assert result.jobs_completed == 1


# ------------------------------------------------------------ strategy semantics
def test_blocking_strategy_records_checkpoint_wait_under_contention(tiny_platform, tiny_classes, tiny_config):
    # Many jobs on a slow file system: with Ordered (blocking) some checkpoint
    # requests must wait for the token, which is recorded as CHECKPOINT_WAIT.
    config = tiny_config(
        "ordered-fixed",
        horizon_s=1 * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        platform=tiny_platform.with_bandwidth(tiny_platform.io_bandwidth_bytes_per_s / 20),
    )
    jobs = [
        Job(app_class=tiny_classes[0], total_work_s=6 * HOUR, priority=float(i)) for i in range(3)
    ] + [Job(app_class=tiny_classes[1], total_work_s=6 * HOUR, priority=10.0)]
    sim = Simulation(config, jobs=jobs, failure_trace=no_failures(config.horizon_s))
    result = sim.run()
    assert result.breakdown.checkpoint_wait > 0.0


def test_nonblocking_strategy_never_records_checkpoint_wait(tiny_platform, tiny_classes, tiny_config):
    config = tiny_config(
        "orderednb-fixed",
        horizon_s=1 * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        platform=tiny_platform.with_bandwidth(tiny_platform.io_bandwidth_bytes_per_s / 20),
    )
    jobs = [
        Job(app_class=tiny_classes[0], total_work_s=6 * HOUR, priority=float(i)) for i in range(3)
    ] + [Job(app_class=tiny_classes[1], total_work_s=6 * HOUR, priority=10.0)]
    sim = Simulation(config, jobs=jobs, failure_trace=no_failures(config.horizon_s))
    result = sim.run()
    assert result.breakdown.checkpoint_wait == 0.0


def test_oblivious_dilation_vs_ordered_service(tiny_config, tiny_classes):
    # Two identical jobs whose checkpoints collide: under Oblivious both are
    # dilated; under Ordered the total checkpoint time is the same but the
    # first one is served at full speed.  Either way, both accumulate
    # checkpoint waste and both finish.
    jobs = [
        Job(app_class=tiny_classes[0], total_work_s=3 * HOUR, priority=0.0),
        Job(app_class=tiny_classes[0], total_work_s=3 * HOUR, priority=1.0),
    ]
    results = {}
    for strategy in ("oblivious-fixed", "ordered-fixed"):
        config = tiny_config(strategy, horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0)
        sim = Simulation(
            config,
            jobs=[Job(app_class=j.app_class, total_work_s=j.total_work_s, priority=j.priority) for j in jobs],
            failure_trace=no_failures(config.horizon_s),
        )
        results[strategy] = sim.run()
    for result in results.values():
        assert result.jobs_completed == 2
        assert result.breakdown.checkpoint > 0.0


# ------------------------------------------------------------ mechanics
def test_run_can_only_be_called_once(tiny_config, tiny_classes):
    config = tiny_config()
    sim = Simulation(config, jobs=single_job(tiny_classes), failure_trace=no_failures(config.horizon_s))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run()


def test_simulation_is_deterministic_for_a_given_seed(tiny_config):
    a = Simulation(tiny_config(seed=5)).run()
    b = Simulation(tiny_config(seed=5)).run()
    assert a.waste_ratio == pytest.approx(b.waste_ratio)
    assert a.jobs_completed == b.jobs_completed
    assert a.failures_total == b.failures_total
    assert a.events_fired == b.events_fired


def test_different_seeds_give_different_initial_conditions(tiny_config):
    a = Simulation(tiny_config(seed=1)).run()
    b = Simulation(tiny_config(seed=2)).run()
    assert (a.failures_total, a.jobs_submitted) != (b.failures_total, b.jobs_submitted) or (
        a.waste_ratio != pytest.approx(b.waste_ratio)
    )


def test_generated_workload_keeps_platform_utilized(tiny_config):
    result = Simulation(tiny_config(seed=3, horizon_s=2 * DAY)).run()
    assert result.node_utilization > 0.85
    assert result.jobs_submitted > 2


def test_run_simulation_convenience_wrapper(tiny_platform, tiny_classes):
    result = run_simulation(
        platform=tiny_platform,
        workload=list(tiny_classes),
        strategy="least-waste",
        horizon_days=1.0,
        warmup_days=0.1,
        cooldown_days=0.1,
        seed=0,
    )
    assert result.strategy == "least-waste"
    assert 0.0 <= result.waste_ratio <= 1.0
    assert result.horizon_s == pytest.approx(1.0 * DAY)


def test_waste_ratio_always_within_bounds(tiny_config):
    for strategy in ("oblivious-fixed", "ordered-daly", "orderednb-fixed", "least-waste"):
        result = Simulation(tiny_config(strategy, seed=9)).run()
        assert 0.0 <= result.waste_ratio <= 1.0
        assert 0.0 <= result.efficiency <= 1.0


# ------------------------------------------------------------ memory
@pytest.fixture
def without_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "strategy, overrides",
    [
        # Concurrent transfers, four of them still in flight at the horizon.
        ("oblivious-daly", dict(seed=1, horizon_s=1.1 * HOUR, warmup_s=0.0, cooldown_s=0.0)),
        ("least-waste", {}),
        ("least-waste", dict(collect_trace=True)),
    ],
)
def test_a_finished_run_is_freed_by_reference_counting(
    without_cycle_collector, tiny_config, strategy, overrides, monkeypatch
):
    # Count the transfers in flight when the run clears its scheduler.  The
    # patch sits on the class and keeps only counts, so it adds no reference
    # to the run.
    in_flight: list[int] = []
    clear = IOScheduler.clear

    def counting_clear(scheduler):
        in_flight.append(len(scheduler.active_requests()))
        clear(scheduler)

    monkeypatch.setattr(IOScheduler, "clear", counting_clear)
    sim = Simulation(tiny_config(strategy, **overrides))
    result = sim.run()
    if strategy == "oblivious-daly":
        assert sim.io.max_concurrency >= 2
        assert in_flight == [4]
    run = weakref.ref(sim)
    del sim
    # Nothing but reference counting ran: a cycle left behind by the run
    # would keep it alive here.
    assert run() is None
    assert result.jobs_submitted > 0


def test_a_kept_reference_still_reads_the_finished_run(tiny_config):
    sim = Simulation(tiny_config("least-waste", collect_trace=True))
    result = sim.run()
    # The run dropped its pending events, and kept what it reports.
    assert sim.engine.pending_events == 0
    assert len(sim.jobs) == result.jobs_submitted
    assert sim.trace is not None
    completions = [e for e in sim.trace.events if e.kind is TraceEventType.JOB_COMPLETE]
    assert len(completions) == result.jobs_completed > 0
    totals = sim.accounting.job_totals()
    assert totals
    assert set(totals) <= {event.job_id for event in sim.trace.events}
