"""Failure trace generation (repro.platform.failures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platform.failures import FailureEvent, FailureTrace, generate_failure_trace
from repro.units import DAY


def test_trace_is_sorted_and_indexable():
    events = [FailureEvent(5.0, 1), FailureEvent(1.0, 2), FailureEvent(3.0, 0)]
    trace = FailureTrace(events, horizon=10.0)
    assert [e.time for e in trace] == [1.0, 3.0, 5.0]
    assert list(trace)[0].node_id == 2
    assert len(trace) == 3


def test_trace_rejects_out_of_horizon_events():
    with pytest.raises(ConfigurationError):
        FailureTrace([FailureEvent(11.0, 0)], horizon=10.0)
    with pytest.raises(ConfigurationError):
        FailureTrace([FailureEvent(-1.0, 0)], horizon=10.0)


def test_empirical_mtbf():
    # Failure statistics come from iterating the trace: four failures over
    # a 10 s horizon are one every 2.5 s, and so is every gap.
    events = [FailureEvent(t, 0) for t in (7.5, 2.5, 10.0, 5.0)]
    trace = FailureTrace(events, horizon=10.0)
    times = [e.time for e in trace]
    assert 10.0 / len(trace) == 2.5
    assert [b - a for a, b in zip([0.0, *times], times)] == [2.5] * 4
    assert len(FailureTrace([], horizon=10.0)) == 0


def test_generate_failure_trace_statistics(tiny_platform):
    horizon = 200.0 * DAY
    rng = np.random.default_rng(0)
    trace = generate_failure_trace(tiny_platform, horizon, rng)
    # Expected count = horizon / system MTBF; allow generous statistical slack.
    expected = horizon / tiny_platform.system_mtbf_s
    assert 0.5 * expected < len(trace) < 1.7 * expected
    assert all(0.0 <= e.time <= horizon for e in trace)
    assert all(0 <= e.node_id < tiny_platform.num_nodes for e in trace)
    # Times are strictly increasing (exponential gaps are a.s. positive).
    times = [e.time for e in trace]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_generate_failure_trace_is_reproducible(tiny_platform):
    a = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(42))
    b = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(42))
    assert list(a) == list(b)


def test_generate_failure_trace_zero_horizon(tiny_platform):
    trace = generate_failure_trace(tiny_platform, 0.0, np.random.default_rng(1))
    assert len(trace) == 0


def test_generate_failure_trace_negative_horizon_rejected(tiny_platform):
    with pytest.raises(ConfigurationError):
        generate_failure_trace(tiny_platform, -1.0, np.random.default_rng(1))
