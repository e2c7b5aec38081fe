"""Event handles and the time-ordered event queue of the DES engine.

Events are callbacks scheduled at an absolute simulation time.  The heap is
*slot-free*: entries are plain ``(time, seq, event)`` tuples, so ordering
them costs two scalar comparisons instead of a dataclass ``__lt__`` call,
and the :class:`Event` handle itself never needs to be comparable.

Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
when popped, which keeps both scheduling and cancellation O(log n) / O(1).
When cancelled entries are more than half the heap the queue compacts
itself (drops every cancelled tuple and re-heapifies), so a workload that
cancels most of what it schedules cannot grow the heap without bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]

#: Compaction is considered only above this heap size; below it the wasted
#: tuples are too few to matter and re-heapifying would cost more than it
#: saves.
_COMPACT_MIN_HEAP = 64


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events fire in time order, and two events scheduled for the same instant
    fire in scheduling order, which makes runs deterministic for a given
    seed.  The ordering lives in the queue's heap keys; the handle itself is
    deliberately not orderable.

    Attributes
    ----------
    time:
        Absolute simulation time at which the event fires (seconds).
    callback:
        Zero-or-more-argument callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    label:
        Optional human-readable tag, useful when tracing a simulation.
    cancelled:
        True once :meth:`EventQueue.cancel` or :meth:`EventQueue.clear`
        dropped the event; it must not fire.
    fired:
        True once the event has been popped by the queue; cancelling a
        fired event is a no-op.
    """

    time: float
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()
    label: str = ""
    cancelled: bool = False
    fired: bool = False


class EventQueue:
    """Min-heap of ``(time, seq, Event)`` tuples ordered by firing time.

    The queue is intentionally minimal: ``push``, ``cancel``,
    ``pop_next_until`` (skipping cancelled entries), ``clear`` and
    ``__len__`` (counting only active events: the heap minus the cancelled
    entries, which are cancelled through the queue only).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        # Cancelled events still in the heap (lazy cancellation).
        self._lazy = 0

    def __len__(self) -> int:
        return len(self._heap) - self._lazy

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if not (time == time):  # NaN check without importing math
            raise SimulationError("event time must not be NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time=time, callback=callback, args=args, label=label)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event.

        Idempotent, and a no-op for events that already fired: a stale
        handle kept around after :meth:`pop_next_until` returned the event
        must not corrupt the cancelled-entry count.
        """
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._lazy += 1
        self._maybe_compact()

    def pop_next_until(self, until: float | None) -> Event | None:
        """Pop the earliest active event firing at or before ``until``.

        Returns ``None`` when the queue is empty or when every remaining
        active event fires strictly after ``until`` (the queue is left
        untouched in that case).  ``None`` as the horizon means "no limit".
        """
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._lazy -= 1
                continue
            if until is not None and time > until:
                return None
            heapq.heappop(heap)
            event.fired = True
            return event
        return None

    def clear(self) -> None:
        """Drop every pending event.

        Each dropped event is marked cancelled, so cancelling a handle
        kept from before the clear stays a no-op.
        """
        for _time, _seq, event in self._heap:
            event.cancelled = True
        self._heap.clear()
        self._lazy = 0

    def _maybe_compact(self) -> None:
        """Drop lazily-cancelled tuples when they are most of the heap."""
        heap = self._heap
        if len(heap) < _COMPACT_MIN_HEAP or 2 * self._lazy <= len(heap):
            return
        self._heap = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._lazy = 0
