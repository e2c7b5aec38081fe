"""The discrete-event simulation engine.

:class:`SimulationEngine` owns the clock and the event queue.  Model
components schedule callbacks with :meth:`SimulationEngine.schedule` (a
relative delay) or :meth:`SimulationEngine.schedule_at` (an absolute time)
and the engine fires them in time order until the horizon is reached or the
queue drains.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Event loop with a monotonic simulation clock that starts at 0.

    Parameters
    ----------
    max_events:
        Safety valve: the run aborts with :class:`SimulationError` if more
        than this many events fire, which catches accidental infinite event
        cascades in model code.
    """

    def __init__(self, max_events: int = 50_000_000) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._max_events = int(max_events)
        self._fired = 0
        self._running = False

    # ------------------------------------------------------------------ API
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of active (non-cancelled) events still scheduled."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self._queue.push(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at the absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past (time={time}, now={self._now})"
            )
        return self._queue.push(time, callback, *args, label=label)

    def cancel(self, event: Event | None) -> None:
        """Cancel a scheduled event; ``None`` and repeat cancellations are no-ops."""
        if event is not None:
            self._queue.cancel(event)

    def clear(self) -> None:
        """Drop every pending event; each is marked cancelled."""
        self._queue.clear()

    # ------------------------------------------------------------------ run
    def run(self, until: float | None = None) -> float:
        """Fire events in time order.

        Parameters
        ----------
        until:
            Horizon (absolute time).  Events scheduled strictly after the
            horizon are left in the queue and the clock is advanced to the
            horizon.  ``None`` runs until the queue drains.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        try:
            pop_next_until = self._queue.pop_next_until
            while True:
                event = pop_next_until(until)
                if event is None:
                    break
                if event.time < self._now:
                    raise SimulationError(
                        f"event queue returned an event in the past "
                        f"({event.time} < {self._now}, label={event.label!r})"
                    )
                self._now = event.time
                self._fired += 1
                if self._fired > self._max_events:
                    raise SimulationError(
                        f"more than {self._max_events} events fired; "
                        "likely an event cascade bug in model code"
                    )
                event.callback(*event.args)
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False
