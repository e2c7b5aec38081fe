"""Oblivious I/O scheduling (§3.1): no coordination, linear interference.

Every request starts its transfer immediately.  Concurrent transfers share
the aggregate bandwidth proportionally to the node counts of their jobs
(the :class:`~repro.platform.io_subsystem.IOSubsystem` implements the
fair-share arithmetic), so commits are dilated whenever I/O overlaps.  This
models today's uncoordinated production behaviour and is the baseline the
cooperative strategies are compared against.
"""

from __future__ import annotations

from repro.apps.job import Job
from repro.iosched.base import IORequest, IOScheduler

__all__ = ["ObliviousScheduler"]


class ObliviousScheduler(IOScheduler):
    """Uncoordinated I/O: all transfers start at once and interfere."""

    name = "oblivious"
    shares_bandwidth = True
    nonblocking_checkpoints = False

    def __init__(self, engine, io, node_mtbf_s: float) -> None:
        super().__init__(engine, io, node_mtbf_s)
        self._active: list[IORequest] = []

    def submit(self, request: IORequest) -> None:
        self._active.append(request)
        self._start_transfer(request)

    def cancel_job(self, job: Job) -> None:
        for request in list(self._active):
            if request.job is job:
                request.cancelled = True
                if request.transfer is not None:
                    self.io.abort(request.transfer)
                self._active.remove(request)

    def pending_requests(self) -> tuple[IORequest, ...]:
        # Nothing ever waits under oblivious scheduling.
        return ()

    def active_requests(self) -> tuple[IORequest, ...]:
        return tuple(self._active)

    def clear(self) -> None:
        self._active.clear()

    def _after_completion(self, request: IORequest) -> None:
        if request in self._active:
            self._active.remove(request)
