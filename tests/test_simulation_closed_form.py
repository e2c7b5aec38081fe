"""Closed-form oracles: small runs whose every value follows by hand.

Setting: the ``tiny_platform`` fixture (16 nodes, 1 GB/s) with a node MTBF
of 3 240 000 s, and one class ``alpha`` of 4 nodes with 2 GB of input, 8 GB
checkpoints and 4 GB of output, and no routine I/O.  Alone on the file
system an input takes 2 s, a commit 8 s and an output 4 s.  The period is an
hour: the fixed one, or alpha's Young/Daly period sqrt(2 x (3 240 000 / 4)
x 8) = sqrt(12 960 000) = 3 600 s, which is exact in binary floating point.
So every strategy name and spelling of one family gives the same run.  The
window is the whole 0.5-day horizon, and the failure trace is explicit.  The simulator's rule: the first checkpoint
comes after P = 3 600 s of compute, the next P - C = 3 592 s after each
commit.  First fit places the first job on nodes 0-3 and the second on
nodes 4-7, and a FCFS token serves the first job's request first.

Each case below states its derivation; every value it asserts is exact.
All categories are node-seconds (seconds x 4 nodes per job).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.job import Job
from repro.platform.failures import FailureEvent, FailureTrace
from repro.simulation.config import SimulationConfig
from repro.simulation.results import WasteBreakdown
from repro.simulation.simulator import Simulation
from repro.simulation.trace import TraceEventType
from repro.units import DAY, GB, HOUR


def simulate(tiny_platform, app_class, strategy, *, work_s, count=1, failures=(), **overrides):
    """Run ``count`` jobs of ``app_class`` of ``work_s`` seconds each;
    ``overrides`` replace fields of the configuration.  Returns the result
    and the finished simulation."""
    return simulate_jobs(
        tiny_platform, [(app_class, work_s)] * count, strategy, failures=failures, **overrides
    )


def simulate_jobs(tiny_platform, jobs, strategy, *, failures=(), **overrides):
    """Run one job per ``(class, work in seconds)`` pair of ``jobs``, queued
    in that order; otherwise as :func:`simulate`."""
    fields = dict(
        platform=tiny_platform.with_node_mtbf(3_240_000.0),
        classes=tuple(dict.fromkeys(app_class for app_class, _ in jobs)),
        strategy=strategy,
        horizon_s=0.5 * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        fixed_period_s=HOUR,
        seed=0,
    )
    config = SimulationConfig(**{**fields, **overrides})
    jobs = [Job(app_class=app_class, total_work_s=work_s, priority=0.0) for app_class, work_s in jobs]
    trace = FailureTrace(
        [FailureEvent(time, node) for time, node in failures], horizon=config.horizon_s
    )
    sim = Simulation(config, jobs=jobs, failure_trace=trace)
    return sim.run(), sim


def run(tiny_platform, tiny_classes, strategy, *, work_s, count, failures=()):
    """One run of ``count`` alpha jobs of ``work_s`` seconds each."""
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=work_s, count=count, failures=failures
    )
    return result, sim.jobs


def completions(sim):
    """Times at which the run's jobs, restarts included, completed."""
    assert sim.trace is not None
    return [
        event.time for event in sim.trace.events if event.kind is TraceEventType.JOB_COMPLETE
    ]


def spans(sim):
    """``(job, start, end)`` of every job and restart that started, in start
    order; ``end`` is ``None`` for one still running at the horizon."""
    assert sim.trace is not None
    jobs = {job.job_id: job for job in [*sim.jobs, *sim.restarts]}
    return [
        (jobs[event.job_id], event.time, jobs[event.job_id].end_time)
        for event in sim.trace.events
        if event.kind is TraceEventType.JOB_START
    ]


#: Every family in each spelling: the seven names, a tuned Least-Waste, and
#: spelled-out Fixed periods.
OBLIVIOUS = ["oblivious-fixed", "oblivious-daly"]
ORDERED = ["ordered-fixed", "ordered-daly", "ordered[policy=fixed,period_s=3600]"]
NONBLOCKING = [
    "orderednb-fixed", "orderednb-daly", "least-waste", "least-waste[mtbf_bias=2]",
    "least-waste[policy=fixed]",
]
EVERY_SPELLING = OBLIVIOUS + ORDERED + NONBLOCKING


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_lone_job_without_failure(tiny_platform, tiny_classes, strategy):
    # Input 0-2.  Commits at 3 602-3 610, 7 202-7 210, 10 802-10 810,
    # 14 402-14 410 and 18 002-18 010 (work 3 600 + 4 x 3 592 = 17 968 by
    # then).  The last 1 832 s of work end at 19 842 (the next commit would
    # come 3 592 s later), and the output ends at 19 846.
    result, (job,) = run(tiny_platform, tiny_classes, strategy, work_s=5.5 * HOUR, count=1)
    assert result.breakdown == WasteBreakdown(
        compute=19_800.0 * 4,  # 79 200
        base_io=(2.0 + 4.0) * 4,  # 24
        io_delay=0.0,
        checkpoint=5 * 8.0 * 4,  # 160
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=19_846.0 * 4,  # 79 384
    )
    assert result.checkpoints_completed == 5
    assert job.end_time == 19_846.0


def test_a_lone_job_failing_during_compute(tiny_platform, tiny_classes):
    # The first commit protects 3 600 s of work at 3 610.  Node 0 fails at
    # 5 400, so the 5 400 - 3 610 = 1 790 s computed since are lost.  The
    # restart re-reads the checkpoint (8 s of recovery, 5 400-5 408), then
    # computes the remaining 16 200 s with four commits (after 3 600 s,
    # then every 3 592 s: 14 376 s of work) and 1 824 s more, and writes
    # its output: 8 + 16 200 + 4 x 8 + 4 = 16 244 s, ending at 21 644.
    # Allocated: 5 400 + 16 244 = 21 644 s.
    result, _ = run(
        tiny_platform, tiny_classes, "ordered-fixed",
        work_s=5.5 * HOUR, count=1, failures=[(5_400.0, 0)],
    )
    assert result.breakdown == WasteBreakdown(
        compute=(3_600.0 + 16_200.0) * 4,  # 79 200
        base_io=(2.0 + 4.0) * 4,  # the first input and the restart's output
        io_delay=0.0,
        checkpoint=5 * 8.0 * 4,  # 160
        checkpoint_wait=0.0,
        recovery=8.0 * 4,  # 32
        lost_work=(5_400.0 - 3_610.0) * 4,  # 7 160
        allocated=21_644.0 * 4,  # 86 576
    )
    assert result.checkpoints_completed == 5
    assert result.failures_effective == 1
    assert result.restarts_submitted == 1
    assert result.jobs_completed == 1


# Two 1.5 h jobs starting together: compute is 2 x 5 400 s x 4 = 43 200 and
# base I/O 2 x (2 + 4) s x 4 = 48 in every case.
def test_two_jobs_under_oblivious_share_every_transfer(tiny_platform, tiny_classes):
    # Both inputs share the bandwidth: 4 GB in 4 s, each dilated by 2 s.
    # Both commits (3 604-3 620) take 16 s instead of 8, and each job's
    # remaining 1 800 s of work ends at 5 420.  Both outputs take 8 s
    # instead of 4 and end at 5 428.  I/O delay: (2 + 4) s x 4 x 2 = 48.
    for strategy in OBLIVIOUS:
        result, jobs = run(tiny_platform, tiny_classes, strategy, work_s=1.5 * HOUR, count=2)
        assert result.breakdown == WasteBreakdown(
            compute=43_200.0, base_io=48.0, io_delay=48.0, checkpoint=2 * 16.0 * 4,
            checkpoint_wait=0.0, recovery=0.0, lost_work=0.0, allocated=2 * 5_428.0 * 4,
        ), strategy
        assert [job.end_time for job in jobs] == [5_428.0, 5_428.0], strategy


def test_two_jobs_under_ordered_block_behind_the_token(tiny_platform, tiny_classes):
    # Inputs 0-2 and 2-4: the second job waits 2 s (I/O delay 8).  The
    # first commits 3 602-3 610.  The second asks at 3 604 and idles until
    # 3 610 (checkpoint wait 6 s x 4 = 24), then commits 3 610-3 618.
    # Their last 1 800 s of work end at 5 410 and 5 418, their outputs at
    # 5 414 and 5 422.
    for strategy in ORDERED:
        result, jobs = run(tiny_platform, tiny_classes, strategy, work_s=1.5 * HOUR, count=2)
        assert result.breakdown == WasteBreakdown(
            compute=43_200.0, base_io=48.0, io_delay=8.0, checkpoint=2 * 8.0 * 4,
            checkpoint_wait=24.0, recovery=0.0, lost_work=0.0,
            allocated=(5_414.0 + 5_422.0) * 4,
        ), strategy
        assert [job.end_time for job in jobs] == [5_414.0, 5_422.0], strategy


@pytest.mark.parametrize("strategy", NONBLOCKING)
def test_two_jobs_under_a_nonblocking_token_compute_while_they_wait(
    tiny_platform, tiny_classes, strategy
):
    # Inputs 0-2 and 2-4 (I/O delay 8).  The first job commits 3 602-3 610.
    # The second asks at 3 604 but keeps computing until the grant at
    # 3 610 (no checkpoint wait), commits the 3 606 s of work it has then
    # (3 610-3 618) and computes the last 1 794 s until 5 412, 2 s after
    # the first job (5 410).  Its output waits those 2 s for the first
    # job's (5 410-5 414): I/O delay 8 more.  The jobs end at 5 414 and
    # 5 418.  With one request waiting at a time, Least-Waste serves it as
    # FCFS would, whatever its MTBF bias.
    result, jobs = run(tiny_platform, tiny_classes, strategy, work_s=1.5 * HOUR, count=2)
    assert result.breakdown == WasteBreakdown(
        compute=43_200.0, base_io=48.0, io_delay=16.0, checkpoint=2 * 8.0 * 4,
        checkpoint_wait=0.0, recovery=0.0, lost_work=0.0, allocated=(5_414.0 + 5_418.0) * 4,
    )
    assert [job.end_time for job in jobs] == [5_414.0, 5_418.0]


# One failure at 3 605 s, during the first commits, on node 0 (the first
# job) or node 4 (the second).  Only the survivor's end time and the
# counters are asserted: the failed job's aborted or withdrawn I/O is not
# charged to any category yet.  Each run completes the survivor's commit
# and the restart's one commit (after 3 600 s of its 5 400), both jobs
# (the restart included), and submits one restart.
@pytest.mark.parametrize(
    ("strategy", "failed_node", "survivor_end"),
    [
        # The survivor's commit ran 1 s at half bandwidth (0.5 GB); the
        # restart's 2 GB input shares the next 4 s with it (2 GB more), and
        # the last 5.5 GB run alone: it ends at 3 614.5, the work at
        # 5 414.5 and the output at 5 418.5.  Symmetric in the two jobs.
        ("oblivious-fixed", 0, 5_418.5),
        ("oblivious-fixed", 4, 5_418.5),
        # The first job's commit is aborted, and the withdrawn token goes
        # to the waiting second job at once: 3 605-3 613, then 1 800 s of
        # work and the output, 5 413-5 417.  The restart's input waits.
        ("ordered-fixed", 0, 5_417.0),
        # The second job's waiting request is withdrawn; the first job
        # runs undisturbed and ends at 5 414, as without the failure.
        ("ordered-fixed", 4, 5_414.0),
        # As under Ordered, but the second job computed until the grant at
        # 3 605 (3 601 s of work): 3 613 + 1 799 = 5 412, output 5 412-5 416.
        ("orderednb-fixed", 0, 5_416.0),
        ("orderednb-fixed", 4, 5_414.0),
        ("least-waste", 0, 5_416.0),
        ("least-waste", 4, 5_414.0),
    ],
)
def test_a_failure_during_the_first_commits(
    tiny_platform, tiny_classes, strategy, failed_node, survivor_end
):
    result, jobs = run(
        tiny_platform, tiny_classes, strategy,
        work_s=1.5 * HOUR, count=2, failures=[(3_605.0, failed_node)],
    )
    survivor = jobs[1] if failed_node == 0 else jobs[0]
    assert survivor.end_time == survivor_end
    assert result.checkpoints_completed == 2
    assert result.jobs_completed == 2
    assert result.restarts_submitted == 1
    assert result.failures_effective == 1


# ------------------------------------------------------------ one more lone job
# A lone job meets no other transfer, so every spelling of every family runs
# it the same way: each case below holds for all of them.


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_regular_io_between_the_checkpoints(tiny_platform, tiny_classes, strategy):
    # 4 GB of routine I/O in the default 4 chunks: 1 GB (1 s) after every
    # 5 000 / 5 = 1 000 s of work.  Input 0-2; chunks at 1 002-1 003,
    # 2 003-2 004 and 3 004-3 005.  The checkpoint falls due 3 600 s after
    # compute began, at 3 602, with 3 000 + 597 = 3 597 s of work done; it
    # commits 3 602-3 610.  The fourth chunk comes 403 s later, 4 013-4 014,
    # the work ends 1 000 s after it, at 5 014 (before the next checkpoint,
    # due at 3 610 + 3 592 = 7 202), and the output ends at 5 018.
    app = dataclasses.replace(tiny_classes[0], routine_io_bytes=4 * GB)
    result, sim = simulate(tiny_platform, app, strategy, work_s=5_000.0)
    assert result.breakdown == WasteBreakdown(
        compute=5_000.0 * 4,  # 20 000
        base_io=(2.0 + 4 * 1.0 + 4.0) * 4,  # input, four chunks, output: 40
        io_delay=0.0,
        checkpoint=8.0 * 4,  # 32
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=5_018.0 * 4,  # 20 072
    )
    assert result.checkpoints_completed == 1
    assert sim.jobs[0].end_time == 5_018.0


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_checkpoint_due_during_regular_io_waits_for_it(tiny_platform, tiny_classes, strategy):
    # One chunk of 200 GB after 7 000 / 2 = 3 500 s of work: 3 502-3 702.
    # The checkpoint falls due inside it, at 3 602, and is taken when it
    # ends: it holds the 3 500 s done then and commits 3 702-3 710.  The
    # other 3 500 s end at 7 210, before the next request (3 710 + 3 592
    # = 7 302), and the output ends at 7 214.
    app = dataclasses.replace(tiny_classes[0], routine_io_bytes=200 * GB)
    result, sim = simulate(tiny_platform, app, strategy, work_s=7_000.0, routine_io_chunks=1)
    assert result.breakdown == WasteBreakdown(
        compute=7_000.0 * 4,  # 28 000
        base_io=(2.0 + 200.0 + 4.0) * 4,  # 824
        io_delay=0.0,
        checkpoint=8.0 * 4,  # 32
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=7_214.0 * 4,  # 28 856
    )
    assert result.checkpoints_completed == 1
    assert sim.jobs[0].end_time == 7_214.0


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_the_window_clips_every_category(tiny_platform, tiny_classes, strategy):
    # The lone 5.5 h job of the first case, measured over [3 000, 18 000]:
    # a 6 h horizon less a 3 000 s warm-up and a 3 600 s cool-down (both
    # under the quarter-horizon cap of 5 400 s).  The input (0-2) falls
    # before the window and the fifth commit (18 002-18 010) and the output
    # after it.  In it: compute 3 000-3 602, three whole intervals of
    # 3 592 s and 14 410-18 000 (602 + 10 776 + 3 590 = 14 968 s), and the
    # four commits at 3 602, 7 202, 10 802 and 14 402 (32 s).  The job is
    # allocated over the whole window: 15 000 s.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=5.5 * HOUR,
        horizon_s=6 * HOUR, warmup_s=3_000.0, cooldown_s=3_600.0,
    )
    assert result.window == (3_000.0, 18_000.0)
    assert result.breakdown == WasteBreakdown(
        compute=14_968.0 * 4,  # 59 872
        base_io=0.0,
        io_delay=0.0,
        checkpoint=4 * 8.0 * 4,  # 128
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=15_000.0 * 4,  # 60 000
    )
    assert result.checkpoints_completed == 5
    assert sim.jobs[0].end_time == 19_846.0


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_failure_on_an_idle_node_changes_nothing(tiny_platform, tiny_classes, strategy):
    # Node 15 is never allocated, and node 0 fails after the job ended on
    # it (19 846): the run is the first case's, with two failures counted
    # and none effective.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=5.5 * HOUR,
        failures=[(HOUR, 15), (20_000.0, 0)],
    )
    lone, _ = run(tiny_platform, tiny_classes, strategy, work_s=5.5 * HOUR, count=1)
    assert result.breakdown == lone.breakdown
    assert result.checkpoints_completed == 5
    assert sim.jobs[0].end_time == 19_846.0
    assert (result.failures_total, result.failures_effective) == (2, 0)
    assert (result.jobs_failed, result.restarts_submitted) == (0, 0)


# A failure during a transfer aborts it, and the aborted node-seconds are not
# charged to any category yet, so these cases leave out the category that
# transfer would land in.  Everything else is exact: the restart's timing,
# the counters, and the categories the aborted transfer does not touch.  A
# restart starts on the freed nodes at once, so the job and its restarts
# hold 4 nodes from 0 until the last one ends.


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_failure_during_the_input(tiny_platform, tiny_classes, strategy):
    # Node 0 fails at 1, half-way through the 2 s input.  Nothing was
    # computed, so nothing is lost.  The restart has no checkpoint and
    # re-reads the 2 GB input as recovery, 1-3; then it runs the first
    # case's schedule 1 s later: five commits and an output ending at
    # 19 847.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=5.5 * HOUR,
        failures=[(1.0, 0)], collect_trace=True,
    )
    breakdown = result.breakdown
    assert breakdown.compute == 19_800.0 * 4
    assert breakdown.checkpoint == 5 * 8.0 * 4
    assert breakdown.recovery == 2.0 * 4
    assert breakdown.lost_work == 0.0
    assert breakdown.allocated == 19_847.0 * 4
    assert completions(sim) == [19_847.0]
    assert result.checkpoints_completed == 5
    assert (result.jobs_failed, result.restarts_submitted, result.jobs_completed) == (1, 1, 1)


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_failure_during_the_recovery(tiny_platform, tiny_classes, strategy):
    # Node 0 fails at 1 800, before the first checkpoint: the 1 798 s
    # computed since the input are lost.  The restart re-reads the 2 GB
    # input as recovery, 1 800-1 802, and node 1 fails at 1 801, during
    # it; nothing more is lost.  The second restart reads the input again,
    # 1 801-1 803, and runs the whole 19 800 s: commits at 5 403, 9 003,
    # 12 603, 16 203 and 19 803, the last 1 832 s until 21 643, the output
    # until 21 647.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=5.5 * HOUR,
        failures=[(1_800.0, 0), (1_801.0, 1)], collect_trace=True,
    )
    breakdown = result.breakdown
    assert breakdown.compute == 19_800.0 * 4
    assert breakdown.base_io == (2.0 + 4.0) * 4  # the first input and the output
    assert breakdown.checkpoint == 5 * 8.0 * 4
    assert breakdown.lost_work == 1_798.0 * 4  # 7 192
    assert breakdown.allocated == 21_647.0 * 4
    assert completions(sim) == [21_647.0]
    assert result.checkpoints_completed == 5
    assert (result.jobs_failed, result.restarts_submitted, result.jobs_completed) == (2, 2, 1)
    assert result.failures_effective == 2


@pytest.mark.parametrize("strategy", EVERY_SPELLING)
def test_a_failure_during_the_output(tiny_platform, tiny_classes, strategy):
    # Node 0 fails at 19 844, half-way through the output (19 842-19 846).
    # The last commit protected 17 968 s, so the 1 832 s computed after it
    # are lost.  The restart reads that checkpoint (8 s, 19 844-19 852),
    # computes the 1 832 s until 21 684 (its first checkpoint would fall
    # due at 23 452) and writes the output until 21 688.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], strategy, work_s=5.5 * HOUR,
        failures=[(19_844.0, 0)], collect_trace=True,
    )
    breakdown = result.breakdown
    assert breakdown.compute == 19_800.0 * 4
    assert breakdown.checkpoint == 5 * 8.0 * 4
    assert breakdown.recovery == 8.0 * 4
    assert breakdown.lost_work == 1_832.0 * 4  # 7 328
    assert breakdown.allocated == 21_688.0 * 4
    assert completions(sim) == [21_688.0]
    assert result.checkpoints_completed == 5
    assert (result.jobs_failed, result.restarts_submitted, result.jobs_completed) == (1, 1, 1)


# ------------------------------------------------------------ placement
# alpha widened to 12 nodes: two such jobs cannot share the 16 nodes, so
# the second waits in the queue until the first releases its nodes.  Under
# ordered-fixed a wide 1.5 h job alone runs the lone job's schedule: input
# 0-2, commit 3 602-3 610, the last 1 800 s of work until 5 410 and the
# output until 5 414, 5 414 s in all.  Node-seconds are x 12 for it.


def widened(tiny_classes):
    """alpha on 12 nodes."""
    return dataclasses.replace(tiny_classes[0], nodes=12)


def test_two_wide_jobs_run_back_to_back(tiny_platform, tiny_classes):
    # The second starts when the first ends and runs the same 5 414 s.
    wide = widened(tiny_classes)
    result, sim = simulate_jobs(
        tiny_platform, [(wide, 1.5 * HOUR)] * 2, "ordered-fixed", collect_trace=True
    )
    first, second = sim.jobs
    assert spans(sim) == [(first, 0.0, 5_414.0), (second, 5_414.0, 10_828.0)]
    assert result.breakdown == WasteBreakdown(
        compute=2 * 5_400.0 * 12,  # 129 600
        base_io=2 * (2.0 + 4.0) * 12,  # 144
        io_delay=0.0,
        checkpoint=2 * 8.0 * 12,  # 192
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=10_828.0 * 12,  # 129 936
    )


def test_first_fit_starts_a_job_that_fits_behind_one_that_waits(tiny_platform, tiny_classes):
    # Queued: wide, wide, then a 4-node alpha.  The first wide job takes
    # 12 nodes; the second needs 12 of the 4 left and waits, and first fit
    # skips it: alpha fits and starts at 0 too.  It is the second of the
    # two ordered jobs above: input 2-4 behind the wide job's, a commit
    # asked at 3 604 that waits for the wide job's until 3 610, and an end
    # at 5 422.  The second wide job starts on the 12 nodes freed at 5 414.
    alpha, wide = tiny_classes[0], widened(tiny_classes)
    _, sim = simulate_jobs(
        tiny_platform, [(wide, 1.5 * HOUR), (wide, 1.5 * HOUR), (alpha, 1.5 * HOUR)],
        "ordered-fixed", collect_trace=True,
    )
    first, second, small = sim.jobs
    assert spans(sim) == [
        (first, 0.0, 5_414.0),
        (small, 0.0, 5_422.0),
        (second, 5_414.0, 10_828.0),
    ]


def test_a_restart_goes_ahead_of_the_queued_job(tiny_platform, tiny_classes):
    # Node 0 fails at 5 400, while the first wide job computes: its commit
    # protected 3 600 s at 3 610, and the 1 790 s computed since are lost.
    # The restart is queued ahead of the waiting job and takes the freed
    # nodes at once: it reads the checkpoint (5 400-5 408), computes the
    # last 1 800 s (too few for a checkpoint) and writes the output until
    # 7 212.  The queued job then runs its 5 414 s: 7 212-12 626.
    wide = widened(tiny_classes)
    result, sim = simulate_jobs(
        tiny_platform, [(wide, 1.5 * HOUR)] * 2, "ordered-fixed",
        failures=[(5_400.0, 0)], collect_trace=True,
    )
    failed, queued = sim.jobs
    (restart,) = sim.restarts
    assert spans(sim) == [
        (failed, 0.0, 5_400.0),
        (restart, 5_400.0, 7_212.0),
        (queued, 7_212.0, 12_626.0),
    ]
    assert result.breakdown == WasteBreakdown(
        compute=(3_600.0 + 1_800.0 + 5_400.0) * 12,  # 129 600
        base_io=(2.0 + 4.0 + 2.0 + 4.0) * 12,  # 144
        io_delay=0.0,
        checkpoint=2 * 8.0 * 12,  # 192
        checkpoint_wait=0.0,
        recovery=8.0 * 12,  # 96
        lost_work=(5_400.0 - 3_610.0) * 12,  # 21 480
        allocated=12_626.0 * 12,  # 151 512
    )


# ------------------------------------------------------------ the horizon
# A run ends at its horizon whatever its jobs are doing.  A job computing
# then has its compute and allocation closed at the horizon; a job still
# waiting for nodes holds none and is charged nothing.  (A horizon inside
# a transfer leaves that transfer in no category: one of the accounting
# holes the file's docstring leaves out.)


def test_the_horizon_while_a_lone_job_computes(tiny_platform, tiny_classes):
    # Horizon 7 200: input 0-2, commit 3 602-3 610, compute until the
    # horizon (3 600 + 3 590 = 7 190 s); the next commit would fall due at
    # 7 202.
    result, sim = simulate(
        tiny_platform, tiny_classes[0], "ordered-fixed", work_s=5.5 * HOUR,
        horizon_s=2 * HOUR, collect_trace=True,
    )
    (job,) = sim.jobs
    assert spans(sim) == [(job, 0.0, None)]
    assert result.breakdown == WasteBreakdown(
        compute=7_190.0 * 4,  # 28 760
        base_io=2.0 * 4,  # 8
        io_delay=0.0,
        checkpoint=8.0 * 4,  # 32
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=7_200.0 * 4,  # 28 800
    )
    assert (result.checkpoints_requested, result.checkpoints_completed) == (1, 1)
    assert result.jobs_completed == 0


def test_the_horizon_while_a_job_waits_for_nodes(tiny_platform, tiny_classes):
    # Two wide 5.5 h jobs and a horizon at 7 200: the first computes as
    # the lone job above, on 12 nodes; the second never starts.
    wide = widened(tiny_classes)
    result, sim = simulate_jobs(
        tiny_platform, [(wide, 5.5 * HOUR)] * 2, "ordered-fixed",
        horizon_s=2 * HOUR, collect_trace=True,
    )
    running, waiting = sim.jobs
    assert spans(sim) == [(running, 0.0, None)]
    assert waiting.end_time is None
    assert result.breakdown == WasteBreakdown(
        compute=7_190.0 * 12,  # 86 280
        base_io=2.0 * 12,  # 24
        io_delay=0.0,
        checkpoint=8.0 * 12,  # 96
        checkpoint_wait=0.0,
        recovery=0.0,
        lost_work=0.0,
        allocated=7_200.0 * 12,  # 86 400
    )
    assert result.node_utilization == 0.75  # 12 of the 16 nodes
    assert (result.jobs_submitted, result.jobs_completed) == (2, 0)
