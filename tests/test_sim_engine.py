"""Discrete-event engine (repro.sim.engine)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine


def test_clock_advances_to_event_times():
    engine = SimulationEngine()
    times: list[float] = []
    engine.schedule(5.0, lambda: times.append(engine.now))
    engine.schedule(2.0, lambda: times.append(engine.now))
    engine.run()
    assert times == [2.0, 5.0]
    assert engine.now == 5.0


def test_run_until_horizon_leaves_later_events_pending():
    engine = SimulationEngine()
    fired: list[float] = []
    engine.schedule(1.0, lambda: fired.append(1.0))
    engine.schedule(10.0, lambda: fired.append(10.0))
    end = engine.run(until=5.0)
    assert fired == [1.0]
    assert end == 5.0
    assert engine.now == 5.0
    assert engine.pending_events == 1


def test_events_can_schedule_more_events():
    engine = SimulationEngine()
    fired: list[float] = []

    def chain(depth: int) -> None:
        fired.append(engine.now)
        if depth > 0:
            engine.schedule(1.0, chain, depth - 1)

    engine.schedule(0.0, chain, 3)
    engine.run()
    assert fired == [0.0, 1.0, 2.0, 3.0]


def test_schedule_at_absolute_time():
    engine = SimulationEngine()
    engine.run(until=100.0)
    seen: list[float] = []
    engine.schedule_at(150.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [150.0]


def test_scheduling_in_the_past_rejected():
    engine = SimulationEngine()
    engine.run(until=10.0)
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_cancel_prevents_callback():
    engine = SimulationEngine()
    fired: list[str] = []
    event = engine.schedule(1.0, fired.append, "nope")
    engine.cancel(event)
    engine.cancel(None)  # no-op
    engine.run()
    assert fired == []


def test_max_events_guard():
    engine = SimulationEngine(max_events=10)

    def loop() -> None:
        engine.schedule(1.0, loop)

    engine.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        engine.run()


def test_events_fired_counter():
    engine = SimulationEngine()
    for index in range(5):
        engine.schedule(float(index), lambda: None)
    engine.run()
    assert engine.events_fired == 5


def test_run_is_not_reentrant():
    engine = SimulationEngine()

    def inner() -> None:
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1.0, inner)
    engine.run()


def test_run_until_advances_clock_even_without_events():
    engine = SimulationEngine()
    assert engine.run(until=42.0) == 42.0
    assert engine.now == 42.0
