"""Shared-bandwidth I/O subsystem (repro.platform.io_subsystem)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.platform.io_subsystem import IOSubsystem, Transfer
from repro.sim.engine import SimulationEngine


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def io(engine: SimulationEngine) -> IOSubsystem:
    return IOSubsystem(engine, bandwidth_bytes_per_s=100.0)


def test_single_transfer_runs_at_full_bandwidth(engine, io):
    done: list[float] = []
    io.start(1000.0, weight=1.0, on_complete=lambda t: done.append(engine.now))
    engine.run()
    assert done == [pytest.approx(10.0)]


def test_two_equal_transfers_share_bandwidth_linearly(engine, io):
    finish: dict[str, float] = {}
    io.start(1000.0, weight=1.0, on_complete=lambda t: finish.setdefault("a", engine.now))
    io.start(1000.0, weight=1.0, on_complete=lambda t: finish.setdefault("b", engine.now))
    engine.run()
    # Both take twice as long as they would alone.
    assert finish["a"] == pytest.approx(20.0)
    assert finish["b"] == pytest.approx(20.0)


def test_weighted_sharing_is_proportional(engine, io):
    finish: dict[str, float] = {}
    # Weight 3 gets 75 B/s, weight 1 gets 25 B/s while both are active.
    io.start(300.0, weight=3.0, on_complete=lambda t: finish.setdefault("big", engine.now))
    io.start(300.0, weight=1.0, on_complete=lambda t: finish.setdefault("small", engine.now))
    engine.run()
    # Big: 300 B at 75 B/s -> 4 s.  Small: 4 s at 25 B/s = 100 B, then 200 B
    # alone at 100 B/s -> 2 s more.
    assert finish["big"] == pytest.approx(4.0)
    assert finish["small"] == pytest.approx(6.0)


def test_later_arrival_slows_down_existing_transfer(engine, io):
    finish: dict[str, float] = {}
    io.start(1000.0, weight=1.0, on_complete=lambda t: finish.setdefault("first", engine.now))
    engine.schedule(5.0, lambda: io.start(250.0, weight=1.0, on_complete=lambda t: finish.setdefault("second", engine.now)))
    engine.run()
    # First: 500 B alone (5 s), then shares 50 B/s; the second (250 B) takes
    # 5 s of shared service, finishing at t=10; first finishes its remaining
    # 250 B alone at 100 B/s by t=12.5.
    assert finish["second"] == pytest.approx(10.0)
    assert finish["first"] == pytest.approx(12.5)


def test_aggregate_throughput_is_conserved(engine, io):
    finish: list[float] = []
    for _ in range(5):
        io.start(200.0, weight=1.0, on_complete=lambda t: finish.append(engine.now))
    engine.run()
    # 5 x 200 B at 100 B/s aggregate -> everything done at t=10.
    assert all(t == pytest.approx(10.0) for t in finish)
    assert io.busy_seconds == pytest.approx(10.0)


def test_abort_releases_bandwidth(engine, io):
    finish: dict[str, float] = {}
    victim = io.start(1000.0, weight=1.0, on_complete=lambda t: finish.setdefault("victim", engine.now))
    io.start(1000.0, weight=1.0, on_complete=lambda t: finish.setdefault("survivor", engine.now))
    engine.schedule(5.0, lambda: io.abort(victim))
    engine.run()
    # Survivor: 250 B in the first 5 s (shared), then 750 B alone -> 12.5 s.
    assert "victim" not in finish
    assert finish["survivor"] == pytest.approx(12.5)
    assert victim.aborted
    assert not victim.done


def test_zero_volume_transfer_completes_immediately(engine, io):
    done: list[float] = []
    engine.schedule(3.0, lambda: io.start(0.0, weight=1.0, on_complete=lambda t: done.append(engine.now)))
    engine.run()
    assert done == [pytest.approx(3.0)]


def test_duration_alone(io):
    assert io.duration_alone(250.0) == pytest.approx(2.5)
    with pytest.raises(SimulationError):
        io.duration_alone(-1.0)


def test_max_concurrency_tracking(engine, io):
    for _ in range(4):
        io.start(100.0, weight=1.0)
    engine.run()
    assert io.max_concurrency == 4


def test_invalid_parameters(engine, io):
    with pytest.raises(SimulationError):
        IOSubsystem(engine, bandwidth_bytes_per_s=0.0)
    with pytest.raises(SimulationError):
        io.start(-1.0, weight=1.0)
    with pytest.raises(SimulationError):
        io.start(10.0, weight=0.0)


def test_transfer_bookkeeping_fields(engine, io):
    transfer = io.start(100.0, weight=2.0)
    assert transfer.active and not transfer.done
    assert transfer.finished_at is None
    engine.run()
    assert transfer.done
    assert transfer.finished_at == pytest.approx(1.0)
    assert transfer.remaining_bytes == 0.0


def test_one_completion_event_is_pending_at_a_time(engine, io):
    # 100, 200 and 300 B share 100 B/s: the first finishes at t=3, the
    # second at t=5 and the third, alone after the abort below, later.
    first, second, third = [
        io.start(volume, weight=1.0, on_complete=lambda t: None) for volume in (100.0, 200.0, 300.0)
    ]
    assert engine.pending_events == 1
    engine.run(until=4.0)
    assert first.done and first.on_complete is None
    assert engine.pending_events == 1
    io.abort(second)
    assert second.aborted and second.on_complete is None
    assert engine.pending_events == 1
    engine.run()
    assert third.done
    assert engine.pending_events == 0


def test_identical_transfers_complete_in_start_order(engine, io):
    order: list[Transfer] = []
    first = io.start(500.0, weight=2.0, on_complete=order.append)
    second = io.start(500.0, weight=2.0, on_complete=order.append)
    engine.run()
    assert order == [first, second]
