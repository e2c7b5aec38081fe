"""Exact metamorphic relations of the simulator at full Cielo scale.

A metamorphic relation transforms the input in a way whose effect on the
output is known exactly, so it checks the whole simulator without knowing
the answer.

Time scaling by 2: halve the bandwidth and double the node MTBF, every
class's work, the horizon, the warm-up, the cool-down and the fixed period.
Every duration of the run then doubles (commit times are volume over
bandwidth), and multiplying by 2 is exact in binary floating point.  So the
waste ratio must stay bit-identical, every waste category must double
exactly, and the event, checkpoint, failure and job counts must stay equal.

A lone job is strategy-blind: with one job on the machine no two transfers
ever meet, so nothing waits and nothing shares bandwidth.  Every strategy
of one checkpoint policy must then run the job identically, with or
without failures that hit it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.job import Job
from repro.iosched.registry import STRATEGIES
from repro.platform.failures import FailureEvent, FailureTrace
from repro.scenarios.presets import mini_apex_workload, mini_cielo_platform
from repro.simulation import simulator
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.stats.montecarlo import derive_seeds
from repro.units import DAY, HOUR
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

SEEDS = derive_seeds(0, 3)

COUNTS = ("events_fired", "checkpoints_completed", "failures_total", "jobs_submitted",
          "jobs_completed")


def _config(bandwidth_gbs: float, strategy: str) -> SimulationConfig:
    platform = cielo_platform(bandwidth_gbs=bandwidth_gbs, node_mtbf_years=2.0)
    return SimulationConfig(
        platform=platform,
        classes=tuple(apex_workload(platform)),
        strategy=strategy,
        horizon_s=2.0 * DAY,
        warmup_s=0.25 * DAY,
        cooldown_s=0.25 * DAY,
        fixed_period_s=HOUR,
    )


def _doubled(config: SimulationConfig) -> SimulationConfig:
    platform = config.platform
    return dataclasses.replace(
        config,
        platform=platform.with_bandwidth(platform.io_bandwidth_bytes_per_s / 2.0).with_node_mtbf(
            platform.node_mtbf_s * 2.0
        ),
        classes=tuple(dataclasses.replace(app, work_s=app.work_s * 2.0) for app in config.classes),
        horizon_s=config.horizon_s * 2.0,
        warmup_s=config.warmup_s * 2.0,
        cooldown_s=config.cooldown_s * 2.0,
        fixed_period_s=config.fixed_period_s * 2.0,
    )


# At 40 GB/s Silverton commits in 5 734 s, longer than the 1 h fixed period,
# so the Fixed strategies ask for their next checkpoint after
# ``max(P - C, _MIN_CHECKPOINT_GAP_S)``: the absolute 1 s gap in both runs,
# which breaks the relation (``oblivious-fixed`` and ``ordered-fixed`` then
# differ on 2 of 3 seeds).  That is a scope limit of the relation, not a
# defect: doubling the gap in the doubled run restores it exactly.  At
# 80 GB/s the gap never binds and stays as it is.
@pytest.mark.parametrize("bandwidth_gbs, doubled_gap", [(80.0, False), (40.0, True)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_time_scaling_by_two_is_exact(bandwidth_gbs, doubled_gap, strategy, monkeypatch):
    config = _config(bandwidth_gbs, strategy)
    base = [Simulation(config.with_seed(seed)).run() for seed in SEEDS]
    if doubled_gap:
        gap = simulator._MIN_CHECKPOINT_GAP_S
        monkeypatch.setattr(simulator, "_MIN_CHECKPOINT_GAP_S", 2.0 * gap)
    scaled = [Simulation(_doubled(config).with_seed(seed)).run() for seed in SEEDS]
    for seed, one, two in zip(SEEDS, base, scaled):
        assert two.waste_ratio == one.waste_ratio, seed
        doubled = {k: 2.0 * v for k, v in dataclasses.asdict(one.breakdown).items()}
        assert dataclasses.asdict(two.breakdown) == doubled, seed
        assert [getattr(two, name) for name in COUNTS] == [getattr(one, name) for name in COUNTS]


# The strategies of one checkpoint policy; Least-Waste uses Daly periods.
LONE_JOB_GROUPS = {
    "daly": ("oblivious-daly", "ordered-daly", "orderednb-daly", "least-waste"),
    "fixed": ("oblivious-fixed", "ordered-fixed", "orderednb-fixed"),
}

# Failures on the nodes first fit gives the lone job (every class has at
# least 4): none, one at 1.5 h, and a second at 2.6 h.
LONE_JOB_FAILURES = {
    "no-failure": (),
    "one-failure": ((1.5 * HOUR, 0),),
    "two-failures": ((1.5 * HOUR, 0), (2.6 * HOUR, 1)),
}


# The window is the whole run: the jobs end within 7 h, so a 0.5-day
# warm-up would leave every category at 0 and compare nothing but counts.
@pytest.mark.parametrize("failures", LONE_JOB_FAILURES.values(), ids=LONE_JOB_FAILURES.keys())
@pytest.mark.parametrize("group", LONE_JOB_GROUPS.values(), ids=LONE_JOB_GROUPS.keys())
def test_a_lone_job_is_strategy_blind(group, failures):
    platform = mini_cielo_platform()
    for app in mini_apex_workload(platform):
        outcomes = set()
        for strategy in group:
            config = SimulationConfig(
                platform=platform,
                classes=(app,),
                strategy=strategy,
                horizon_s=4.0 * DAY,
                warmup_s=0.0,
                cooldown_s=0.0,
                seed=0,
            )
            trace = FailureTrace(
                [FailureEvent(time, node) for time, node in failures], horizon=config.horizon_s
            )
            job = Job(app_class=app, total_work_s=app.work_s, priority=0.0)
            result = Simulation(config, jobs=[job], failure_trace=trace).run()
            assert result.breakdown.compute > 0.0
            outcomes.add(
                (
                    result.breakdown,
                    result.checkpoints_completed,
                    result.failures_effective,
                    result.events_fired,
                )
            )
        assert len(outcomes) == 1, (app.name, outcomes)
