"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.daly import job_mtbf, young_period
from repro.core.least_waste import CkptCandidate, IOCandidate, expected_waste, select_candidate
from repro.core.lower_bound import (
    SteadyStateClass,
    constrained_periods,
    io_pressure,
    optimal_periods,
    platform_lower_bound,
)
from repro.core.waste import job_waste
from repro.platform.io_subsystem import IOSubsystem
from repro.platform.nodes import NodePool
from repro.sim.engine import SimulationEngine
from repro.simulation.accounting import Accounting, Category
from repro.stats.summary import summarize

# Bounded positive floats that keep the analytics numerically sane.
positive = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
small_positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------- Young/Daly
@given(checkpoint=small_positive, mtbf=positive)
def test_young_period_is_positive_and_monotone(checkpoint, mtbf):
    period = young_period(checkpoint, mtbf)
    assert period > 0.0
    assert young_period(checkpoint * 4.0, mtbf) == pytest.approx(2.0 * period, rel=1e-9)


@given(
    checkpoint=st.floats(min_value=1.0, max_value=1e4),
    q=st.integers(min_value=1, max_value=100_000),
    mu_ind=st.floats(min_value=1e6, max_value=1e10),
)
def test_daly_period_minimizes_first_order_waste(checkpoint, q, mu_ind):
    """The analytic optimum of Eq. (3) beats nearby periods."""
    p_opt = young_period(checkpoint, job_mtbf(mu_ind, q))
    w_opt = job_waste(p_opt, checkpoint, checkpoint, q, mu_ind)
    for factor in (0.5, 0.9, 1.1, 2.0):
        assert job_waste(p_opt * factor, checkpoint, checkpoint, q, mu_ind) >= w_opt - 1e-9


# ---------------------------------------------------------------- lower bound
@st.composite
def steady_state_workloads(draw):
    n_classes = draw(st.integers(min_value=1, max_value=5))
    classes = []
    for index in range(n_classes):
        classes.append(
            SteadyStateClass(
                name=f"c{index}",
                count=draw(st.floats(min_value=0.1, max_value=50.0)),
                nodes=draw(st.floats(min_value=1.0, max_value=5000.0)),
                checkpoint_time=draw(st.floats(min_value=1.0, max_value=5000.0)),
            )
        )
    total_nodes = sum(c.count * c.nodes for c in classes) * draw(
        st.floats(min_value=1.0, max_value=2.0)
    )
    mu_ind = draw(st.floats(min_value=1e5, max_value=1e10))
    return classes, total_nodes, mu_ind


@settings(max_examples=60, deadline=None)
@given(workload=steady_state_workloads())
def test_lower_bound_invariants(workload):
    classes, total_nodes, mu_ind = workload
    result = platform_lower_bound(classes, total_nodes, mu_ind)
    # The I/O constraint holds at the optimum.
    assert result.io_pressure <= 1.0 + 1e-6
    # lambda >= 0, and the constrained optimum never beats the unconstrained one.
    assert result.lam >= 0.0
    assert result.waste >= result.unconstrained_waste - 1e-9
    # Constrained periods never undercut Daly periods.
    for period, daly in zip(result.periods, result.daly_periods):
        assert period >= daly - 1e-6
    # Efficiency and waste_fraction are consistent.
    assert 0.0 < result.efficiency <= 1.0
    assert result.waste_fraction == pytest.approx(1.0 - result.efficiency, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(workload=steady_state_workloads(), lam=st.floats(min_value=0.0, max_value=10.0))
def test_io_pressure_decreases_with_lambda(workload, lam):
    classes, total_nodes, mu_ind = workload
    base = io_pressure(constrained_periods(0.0, classes, total_nodes, mu_ind), classes)
    stretched = io_pressure(constrained_periods(lam, classes, total_nodes, mu_ind), classes)
    assert stretched <= base + 1e-9


@settings(max_examples=40, deadline=None)
@given(workload=steady_state_workloads())
def test_optimal_periods_saturate_constraint_only_when_needed(workload):
    classes, total_nodes, mu_ind = workload
    periods, lam = optimal_periods(classes, total_nodes, mu_ind)
    pressure = io_pressure(periods, classes)
    if lam > 0.0:
        assert pressure == pytest.approx(1.0, rel=1e-5)
    else:
        assert pressure <= 1.0 + 1e-9


# ----------------------------------------------------------------- least waste
@st.composite
def candidate_pools(draw):
    pool = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        if draw(st.booleans()):
            pool.append(
                IOCandidate(
                    key=index,
                    duration=draw(st.floats(min_value=0.1, max_value=1e4)),
                    nodes=draw(st.floats(min_value=1.0, max_value=1e4)),
                    waited=draw(st.floats(min_value=0.0, max_value=1e5)),
                )
            )
        else:
            pool.append(
                CkptCandidate(
                    key=index,
                    duration=draw(st.floats(min_value=0.1, max_value=1e4)),
                    nodes=draw(st.floats(min_value=1.0, max_value=1e4)),
                    since_last_checkpoint=draw(st.floats(min_value=0.0, max_value=1e5)),
                    recovery_time=draw(st.floats(min_value=0.0, max_value=1e4)),
                )
            )
    return pool


@settings(max_examples=80, deadline=None)
@given(pool=candidate_pools(), mu_ind=st.floats(min_value=1e3, max_value=1e10))
def test_select_candidate_returns_pool_minimum(pool, mu_ind):
    best, best_waste = select_candidate(pool, mu_ind)
    assert best in pool
    assert best_waste >= 0.0
    for candidate in pool:
        assert best_waste <= expected_waste(candidate, pool, mu_ind) + 1e-9


# --------------------------------------------------------------------- engine
@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_engine_fires_events_in_nondecreasing_time_order(delays):
    engine = SimulationEngine()
    fired: list[float] = []
    for delay in delays:
        engine.schedule(delay, lambda: fired.append(engine.now))
    engine.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)
    assert engine.now == max(delays)


# --------------------------------------------------------------- IO subsystem
@settings(max_examples=30, deadline=None)
@given(
    volumes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=10),
    weights=st.lists(st.floats(min_value=0.5, max_value=64.0), min_size=10, max_size=10),
    bandwidth=st.floats(min_value=1.0, max_value=1e6),
)
def test_io_subsystem_conserves_aggregate_throughput(volumes, weights, bandwidth):
    """All concurrent transfers finish no earlier than total_volume/bandwidth,
    and the last one finishes exactly then (work conservation)."""
    engine = SimulationEngine()
    io = IOSubsystem(engine, bandwidth_bytes_per_s=bandwidth)
    finish_times: list[float] = []
    completed: list[float] = []  # volumes of the transfers that completed

    def on_complete(transfer) -> None:
        finish_times.append(engine.now)
        completed.append(transfer.volume_bytes)

    for volume, weight in zip(volumes, weights):
        io.start(volume, weight=weight, on_complete=on_complete)
    engine.run()
    assert len(finish_times) == len(volumes)
    makespan = sum(volumes) / bandwidth
    assert max(finish_times) == pytest.approx(makespan, rel=1e-6)
    assert all(t <= makespan * (1 + 1e-9) for t in finish_times)
    assert sum(completed) == pytest.approx(sum(volumes), rel=1e-9)


# ------------------------------------------------------------------ node pool
@settings(max_examples=50, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=256),
    requests=st.lists(st.integers(min_value=1, max_value=64), max_size=20),
)
def test_node_pool_conservation(num_nodes, requests):
    pool = NodePool(num_nodes)

    def held() -> list[object | None]:
        return [pool.owner_of(node) for node in range(num_nodes)]

    owners = []
    for index, count in enumerate(requests):
        if pool.can_allocate(count):
            owner = f"job{index}"
            pool.allocate(count, owner)
            owners.append((owner, count))
        holders = held()
        assert pool.num_free == holders.count(None)
        for owner, count in owners:
            assert sum(holder is owner for holder in holders) == count
    for owner, count in owners:
        before = held()
        pool.release_owner(owner)
        assert held() == [None if holder is owner else holder for holder in before]
    assert pool.num_free == num_nodes


# ----------------------------------------------------------------- accounting
@settings(max_examples=50, deadline=None)
@given(
    window=st.tuples(
        st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4)
    ).map(sorted),
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2e4),
            st.floats(min_value=0.0, max_value=2e4),
            st.floats(min_value=0.0, max_value=64.0),
        ),
        max_size=20,
    ),
)
def test_accounting_never_exceeds_window_capacity_per_stream(window, intervals):
    start, end = window
    accounting = Accounting(start, end)
    total_nodes = 0.0
    for a, b, nodes in intervals:
        lo, hi = min(a, b), max(a, b)
        accounting.record_interval(Category.COMPUTE, nodes, lo, hi)
        total_nodes += nodes
    # Each stream can contribute at most the window length.
    assert accounting.total(Category.COMPUTE) <= total_nodes * (end - start) + 1e-6
    assert accounting.total(Category.COMPUTE) >= 0.0


# -------------------------------------------------------------------- summary
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
    )
)
def test_summary_statistics_are_ordered_and_bounded(values):
    summary = summarize(values)
    assert summary.minimum <= summary.decile1 <= summary.quartile1 <= summary.median
    assert summary.median <= summary.quartile3 <= summary.decile9 <= summary.maximum
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.n == len(values)
    assert summary.std >= 0.0
    assert np.isfinite(summary.mean)
