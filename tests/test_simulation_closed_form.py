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

import pytest

from repro.apps.job import Job
from repro.platform.failures import FailureEvent, FailureTrace
from repro.simulation.config import SimulationConfig
from repro.simulation.results import WasteBreakdown
from repro.simulation.simulator import Simulation
from repro.units import DAY, HOUR


def run(tiny_platform, tiny_classes, strategy, *, work_s, count, failures=()):
    """One run of ``count`` alpha jobs of ``work_s`` seconds each."""
    alpha = tiny_classes[0]
    config = SimulationConfig(
        platform=tiny_platform.with_node_mtbf(3_240_000.0),
        classes=(alpha,),
        strategy=strategy,
        horizon_s=0.5 * DAY,
        warmup_s=0.0,
        cooldown_s=0.0,
        fixed_period_s=HOUR,
        seed=0,
    )
    jobs = [Job(app_class=alpha, total_work_s=work_s, priority=0.0) for _ in range(count)]
    trace = FailureTrace(
        [FailureEvent(time, node) for time, node in failures], horizon=config.horizon_s
    )
    return Simulation(config, jobs=jobs, failure_trace=trace).run(), jobs


#: Every family in each spelling: the seven names, a tuned Least-Waste, and
#: spelled-out Fixed periods.
OBLIVIOUS = ["oblivious-fixed", "oblivious-daly"]
ORDERED = ["ordered-fixed", "ordered-daly", "ordered[policy=fixed,period_s=3600]"]
NONBLOCKING = [
    "orderednb-fixed", "orderednb-daly", "least-waste", "least-waste[mtbf_bias=2]",
    "least-waste[policy=fixed]",
]


@pytest.mark.parametrize("strategy", OBLIVIOUS + ORDERED + NONBLOCKING)
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
