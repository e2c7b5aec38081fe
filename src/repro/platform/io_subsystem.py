"""Time-shared parallel file system with linear interference.

The paper's interference model (§2) is linear and fair: when several
transfers are in flight, the aggregate bandwidth ``beta`` is split between
them proportionally to the number of nodes of the requesting jobs, and the
aggregate throughput stays constant.  The :class:`IOSubsystem` implements
this as a weighted processor-sharing server on top of the discrete-event
engine:

* each active :class:`Transfer` progresses at rate
  ``beta * weight / sum(weights)``;
* whenever the set of active transfers changes, the remaining volume of
  every transfer is advanced to the current time, and the one pending
  completion event is moved to the transfer that now finishes first (the
  earliest in admission order on a tie).

Only that first transfer's completion can fire before the set changes
again, so one event stands for all of them: every event that fires keeps
the time and the relative order it would have with one event per transfer.
Its label is the kind ``io-complete``, like every other event label; what a
transfer carries for whom, and when it completed or was cancelled, lives in
the scheduler's request: a :class:`Transfer` is in flight while it is in
the subsystem's active list.

The I/O *scheduling strategies* (:mod:`repro.iosched`) decide **when** a
transfer is admitted; strategies that serialize I/O simply admit one
transfer at a time, in which case the transfer receives the full bandwidth.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import SimulationError
from repro.platform.interference import InterferenceModel, LinearInterference
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event

__all__ = ["Transfer", "IOSubsystem"]

#: A completion fires at most this many clock ulps before the transfer's
#: exact finish: its event time is rounded, and so is the elapsed time.
_CLOCK_ULPS = 4.0


class Transfer:
    """A single data transfer through the shared file system.

    Attributes
    ----------
    volume_bytes:
        Total volume of the transfer.
    remaining_bytes:
        Volume still to transfer at the time of the last progress update
        (0 once it completed).
    weight:
        Fair-share weight (the paper uses the job's node count).
    on_complete:
        Callback invoked with the transfer when it completes; dropped
        (set to ``None``) once the transfer completes or is aborted.
    """

    __slots__ = ("volume_bytes", "remaining_bytes", "weight", "on_complete")

    def __init__(
        self,
        volume_bytes: float,
        weight: float,
        on_complete: Callable[["Transfer"], None] | None,
    ) -> None:
        self.volume_bytes = float(volume_bytes)
        self.remaining_bytes = float(volume_bytes)
        self.weight = float(weight)
        self.on_complete = on_complete


class IOSubsystem:
    """Weighted processor-sharing model of the parallel file system.

    Parameters
    ----------
    engine:
        The discrete-event engine providing the clock.
    bandwidth_bytes_per_s:
        Nominal aggregate bandwidth ``beta``.
    interference:
        Optional :class:`~repro.platform.interference.InterferenceModel`
        modulating the aggregate throughput as a function of the number of
        concurrent transfers.  Defaults to the paper's linear (conserving)
        model.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        bandwidth_bytes_per_s: float,
        interference: InterferenceModel | None = None,
    ) -> None:
        if bandwidth_bytes_per_s <= 0.0:
            raise SimulationError("bandwidth_bytes_per_s must be positive")
        self._engine = engine
        self._bandwidth = float(bandwidth_bytes_per_s)
        self._interference = interference or LinearInterference()
        self._active: list[Transfer] = []
        # The completion event of the transfer that finishes first.
        self._completion: Event | None = None
        self._last_update = engine.now
        # Aggregate statistics.
        self._busy_seconds = 0.0
        self._max_concurrency = 0

    # ------------------------------------------------------------ queries
    @property
    def busy_seconds(self) -> float:
        """Total time with at least one active transfer (updated lazily)."""
        self._advance_progress()
        return self._busy_seconds

    @property
    def max_concurrency(self) -> int:
        """Maximum number of simultaneously active transfers observed."""
        return self._max_concurrency

    def duration_alone(self, volume_bytes: float) -> float:
        """Time the transfer would take with the full bandwidth to itself."""
        if volume_bytes < 0.0:
            raise SimulationError("volume_bytes must be non-negative")
        return volume_bytes / self._bandwidth

    # ------------------------------------------------------------ mutation
    def start(
        self,
        volume_bytes: float,
        weight: float,
        on_complete: Callable[[Transfer], None] | None = None,
    ) -> Transfer:
        """Admit a new transfer and start it immediately.

        A zero-volume transfer completes at the current time (its completion
        callback is scheduled as an immediate event rather than invoked
        synchronously, to keep callback ordering uniform).
        """
        if volume_bytes < 0.0:
            raise SimulationError("volume_bytes must be non-negative")
        if weight <= 0.0:
            raise SimulationError("weight must be positive")
        self._advance_progress()
        transfer = Transfer(volume_bytes, weight, on_complete)
        self._active.append(transfer)
        self._max_concurrency = max(self._max_concurrency, len(self._active))
        self._reschedule_completion()
        return transfer

    def abort(self, transfer: Transfer) -> None:
        """Cancel an in-flight transfer (no completion callback is invoked);
        a no-op for one that already completed or was aborted."""
        if transfer not in self._active:
            return
        self._advance_progress()
        transfer.on_complete = None
        self._active.remove(transfer)
        self._reschedule_completion()

    def clear(self) -> None:
        """Drop every in-flight transfer and the pending completion event.

        Nothing completes or aborts and no statistic changes; each dropped
        transfer loses its callback.  For a model whose run is over: its
        callbacks would otherwise keep the model alive through reference
        cycles.
        """
        completion, self._completion = self._completion, None
        if completion is not None and not completion.cancelled:  # the engine may have dropped it
            self._engine.cancel(completion)
        for transfer in self._active:
            transfer.on_complete = None
        self._active.clear()

    # ------------------------------------------------------------ internals
    def _advance_progress(self) -> None:
        """Advance every active transfer's remaining volume to the current time."""
        now = self._engine.now
        elapsed = now - self._last_update
        if elapsed < 0.0:  # pragma: no cover - engine guarantees monotonic time
            raise SimulationError("simulation time moved backwards")
        active = self._active
        if elapsed > 0.0 and active:
            total_weight = sum(t.weight for t in active)
            aggregate = self._interference.effective_bandwidth(self._bandwidth, len(active))
            for transfer in active:
                progressed = aggregate * transfer.weight / total_weight * elapsed
                transfer.remaining_bytes = max(0.0, transfer.remaining_bytes - progressed)
            self._busy_seconds += elapsed
        self._last_update = now

    def _reschedule_completion(self) -> None:
        """Move the pending completion event to the transfer that finishes first.

        Transfers are compared on the event time ``now + delay`` the queue
        would order them by, and the earliest admitted wins a tie, as the
        lowest sequence number would.
        """
        engine = self._engine
        engine.cancel(self._completion)
        self._completion = None
        active = self._active
        if not active:
            return
        total_weight = sum(t.weight for t in active)
        aggregate = self._interference.effective_bandwidth(self._bandwidth, len(active))
        now = engine.now
        first, first_time = active[0], float("inf")
        for transfer in active:
            rate = aggregate * transfer.weight / total_weight
            time = now + (transfer.remaining_bytes / rate if rate > 0.0 else float("inf"))
            if time < first_time:
                first, first_time = transfer, time
        self._completion = engine.schedule_at(
            first_time, self._complete, first, label="io-complete"
        )

    def _complete(self, transfer: Transfer) -> None:
        """Completion event handler for ``transfer``, the first to finish."""
        self._completion = None
        self._advance_progress()
        # Guard against floating-point drift: by construction the transfer
        # is (numerically) finished when its completion event fires.  Its
        # event time is rounded to what the clock resolves at ``now``, so a
        # transfer may have more bytes left than the byte tolerance when the
        # time they still need is below that resolution.
        if transfer.remaining_bytes > 1e-6 * max(1.0, transfer.volume_bytes):
            active = self._active
            aggregate = self._interference.effective_bandwidth(self._bandwidth, len(active))
            rate = aggregate * transfer.weight / sum(t.weight for t in active)
            now = self._engine.now
            if not transfer.remaining_bytes < rate * _CLOCK_ULPS * math.ulp(now):
                raise SimulationError(
                    f"transfer of {transfer.volume_bytes:.3g} B: completion fired early "
                    f"({transfer.remaining_bytes} bytes left)"
                )
        transfer.remaining_bytes = 0.0
        self._active.remove(transfer)
        self._reschedule_completion()
        on_complete, transfer.on_complete = transfer.on_complete, None
        if on_complete is not None:
            on_complete(transfer)
