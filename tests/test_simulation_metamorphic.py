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

Volumes and bandwidth scaled together by 2: double every class's input,
output, checkpoint and routine bytes and the platform bandwidth.  Every
transfer then moves twice the bytes at twice the rate, and a duration is a
volume over a rate, so every time of the run, and with it every field of
its result, must stay bit-identical.  The relation is checked on the
miniature Cielo and, with hypothesis, on random small scenarios.

A lone job is strategy-blind: with one job on the machine no two transfers
ever meet, so nothing waits and nothing shares bandwidth.  Every strategy
of one checkpoint policy must then run the job identically, with or
without failures that hit it.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.app_class import ApplicationClass
from repro.apps.job import Job
from repro.iosched.registry import STRATEGIES
from repro.platform.failures import FailureEvent, FailureTrace
from repro.platform.spec import PlatformSpec
from repro.scenarios.presets import mini_apex_workload, mini_cielo_platform
from repro.simulation import simulator
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.stats.montecarlo import derive_seeds
from repro.units import DAY, GB, HOUR, YEAR
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


def _volumes_doubled(config: SimulationConfig) -> SimulationConfig:
    platform = config.platform
    return dataclasses.replace(
        config,
        platform=platform.with_bandwidth(platform.io_bandwidth_bytes_per_s * 2.0),
        classes=tuple(
            dataclasses.replace(
                app,
                input_bytes=app.input_bytes * 2.0,
                output_bytes=app.output_bytes * 2.0,
                checkpoint_bytes=app.checkpoint_bytes * 2.0,
                routine_io_bytes=app.routine_io_bytes * 2.0,
            )
            for app in config.classes
        ),
    )


# The APEX classes declare no routine I/O, so the second case gives each
# class as much routine I/O as output, which the doubling must scale too.
@pytest.mark.parametrize("routine_io", [False, True], ids=["apex", "with-routine-io"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_volumes_and_bandwidth_scaled_together_change_nothing(strategy, routine_io):
    platform = mini_cielo_platform()
    classes = mini_apex_workload(platform)
    if routine_io:
        classes = [dataclasses.replace(app, routine_io_bytes=app.output_bytes) for app in classes]
    config = SimulationConfig(
        platform=platform,
        classes=tuple(classes),
        strategy=strategy,
        horizon_s=4.0 * DAY,
        warmup_s=0.5 * DAY,
        cooldown_s=0.5 * DAY,
    )
    for seed in SEEDS:
        base = Simulation(config.with_seed(seed)).run()
        scaled = Simulation(_volumes_doubled(config).with_seed(seed)).run()
        assert base.breakdown.base_io > 0.0
        assert repr(scaled) == repr(base), seed


#: A volume in GB: none, or at least 0.1 GB.
_VOLUME_GB = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=100.0))

#: A class: nodes, work (hours), and input, output, checkpoint and routine
#: I/O volumes (GB); a checkpoint is never empty.
_CLASS = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=1.0, max_value=6.0),
    _VOLUME_GB,
    _VOLUME_GB,
    st.floats(min_value=0.1, max_value=100.0),
    _VOLUME_GB,
)


def _random_class(index: int, drawn: tuple) -> ApplicationClass:
    nodes, work_hours, input_gb, output_gb, checkpoint_gb, routine_gb = drawn
    return ApplicationClass(
        name=f"c{index}",
        nodes=nodes,
        work_s=work_hours * HOUR,
        input_bytes=input_gb * GB,
        output_bytes=output_gb * GB,
        checkpoint_bytes=checkpoint_gb * GB,
        routine_io_bytes=routine_gb * GB,
        workload_share=0.5,
    )


# Random small scenarios, drawn as in test_simulation_invariants.py: two
# classes on 32 nodes, with the job list and failures the seed draws.
@settings(max_examples=20, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    classes=st.tuples(_CLASS, _CLASS),
    bandwidth_gbs=st.floats(min_value=0.1, max_value=50.0),
    horizon_days=st.floats(min_value=0.1, max_value=2.0),
    node_mtbf_years=st.floats(min_value=0.02, max_value=5.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_volumes_and_bandwidth_scaled_together_change_nothing_at_random(
    strategy, classes, bandwidth_gbs, horizon_days, node_mtbf_years, seed
):
    platform = PlatformSpec(
        name="meta",
        num_nodes=32,
        cores_per_node=1,
        memory_per_node_bytes=8.0 * GB,
        io_bandwidth_bytes_per_s=bandwidth_gbs * GB,
        node_mtbf_s=node_mtbf_years * YEAR,
    )
    horizon_s = horizon_days * DAY
    config = SimulationConfig(
        platform=platform,
        classes=tuple(_random_class(index, drawn) for index, drawn in enumerate(classes)),
        strategy=strategy,
        horizon_s=horizon_s,
        warmup_s=horizon_s / 8.0,
        cooldown_s=horizon_s / 8.0,
        seed=seed,
    )
    base = Simulation(config).run()
    scaled = Simulation(_volumes_doubled(config)).run()
    assert repr(scaled) == repr(base)


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
