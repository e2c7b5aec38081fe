"""Event queue (repro.sim.events)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventQueue


def test_events_pop_in_time_order():
    queue = EventQueue()
    fired: list[str] = []
    queue.push(3.0, fired.append, "c")
    queue.push(1.0, fired.append, "a")
    queue.push(2.0, fired.append, "b")
    while len(queue):
        event = queue.pop_next_until(None)
        event.callback(*event.args)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    queue = EventQueue()
    order: list[int] = []
    for index in range(10):
        queue.push(5.0, order.append, index)
    while len(queue):
        event = queue.pop_next_until(None)
        event.callback(*event.args)
    assert order == list(range(10))


def test_len_counts_only_active_events():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(first)
    assert first.cancelled
    assert len(queue) == 1
    # Cancelling twice is a no-op.
    queue.cancel(first)
    assert len(queue) == 1
    # Draining skips the cancelled event and leaves the queue empty.
    assert queue.pop_next_until(None) is not first
    assert queue.pop_next_until(None) is None
    assert len(queue) == 0


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired: list[str] = []
    keep = queue.push(1.0, fired.append, "keep")
    drop = queue.push(0.5, fired.append, "drop")
    queue.cancel(drop)
    event = queue.pop_next_until(None)
    assert event is keep
    assert queue.pop_next_until(None) is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.pop_next_until(None) is None


def test_nan_time_rejected():
    with pytest.raises(SimulationError):
        EventQueue().push(float("nan"), lambda: None)


def test_cancel_after_fire_is_a_noop_regression():
    # Regression: cancelling an event that already fired used to corrupt
    # the queue's counts, and with them ``len(queue)`` and
    # ``pending_events`` for every later scheduling decision.
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    fired = queue.pop_next_until(None)
    assert fired is first and fired.fired
    assert len(queue) == 1
    queue.cancel(fired)  # must be a no-op
    assert len(queue) == 1
    assert queue.pop_next_until(None) is not None
    assert len(queue) == 0
    queue.cancel(fired)  # still a no-op on an empty queue
    assert len(queue) == 0


def test_cancel_after_clear_is_a_noop_regression():
    # Regression: clear() dropped heap entries without marking them
    # cancelled, so cancelling a dropped handle took the live count to -1
    # and len(queue) raised ValueError.
    queue = EventQueue()
    dropped = queue.push(1.0, lambda: None)
    queue.clear()
    queue.cancel(dropped)
    assert len(queue) == 0
    assert dropped.cancelled
    kept = queue.push(2.0, lambda: None)
    assert len(queue) == 1
    assert queue.pop_next_until(None) is kept


def test_pop_next_until_respects_the_bound():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    late = queue.push(5.0, lambda: None)
    assert queue.pop_next_until(2.0).time == 1.0
    # The bound leaves later events untouched on the heap.
    assert queue.pop_next_until(2.0) is None
    assert queue.pop_next_until(2.0) is None
    assert queue.pop_next_until(5.0) is late


def test_heap_compaction_drops_cancelled_entries():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(200)]
    for event in events[:-1]:
        queue.cancel(event)
    # Lazily-cancelled entries dominated, so the heap was compacted down to
    # the single live event instead of carrying 199 tombstones.
    assert len(queue) == 1
    assert len(queue._heap) < 200
    assert queue.pop_next_until(None) is events[-1]


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.floats(0.0, 100.0, allow_nan=False)),
            st.tuples(st.just("pop")),
            st.tuples(st.just("cancel"), st.integers(min_value=0)),
        ),
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_active_count_matches_live_heap_entries(ops):
    """Invariant: ``_lazy`` == number of cancelled entries in the heap, so
    ``len(queue)`` == number of uncancelled ones."""
    queue = EventQueue()
    seen = []  # every event ever created (fired, cancelled or pending)
    for op in ops:
        if op[0] == "push":
            seen.append(queue.push(op[1], lambda: None))
        elif op[0] == "pop":
            event = queue.pop_next_until(None)
            if event is not None:
                assert not event.cancelled
                assert event.fired
        elif op[0] == "cancel" and seen:
            queue.cancel(seen[op[1] % len(seen)])
        live = [entry[2] for entry in queue._heap if not entry[2].cancelled]
        assert queue._lazy == len(queue._heap) - len(live)
        assert len(queue) == len(live)
        assert all(not event.fired for event in live)
