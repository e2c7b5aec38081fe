"""I/O requests and the one request ledger every strategy shares.

The simulator submits :class:`IORequest` objects to an :class:`IOScheduler`.
The scheduler decides *when* each request is granted access to the file
system (and therefore how long it waits and whether it shares bandwidth);
when the transfer starts the scheduler invokes ``on_granted`` and when it
finishes ``on_complete``, letting the job runtime advance the job's state
machine.

:class:`IOScheduler` keeps every strategy's requests: the waiting ones, the
ones in flight, and one code path each to submit, grant, complete, cancel
and clear them.  A strategy sets two flags and, for Least-Waste only,
overrides the rule that picks the next request:

* :class:`~repro.iosched.oblivious.ObliviousScheduler` shares bandwidth, so
  every request is granted at once (transfers interfere);
* the other families hold a single I/O token: FCFS
  (:class:`~repro.iosched.ordered.OrderedScheduler`,
  :class:`~repro.iosched.ordered_nb.OrderedNBScheduler`) or the
  Least-Waste choice (:class:`~repro.iosched.least_waste.LeastWasteScheduler`).
"""

from __future__ import annotations

from typing import Callable

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.errors import SchedulingError
from repro.platform.io_subsystem import IOSubsystem, Transfer
from repro.sim.engine import SimulationEngine

__all__ = ["IORequest", "IOScheduler"]


class IORequest:
    """One I/O request from a job to the shared file system.

    Attributes
    ----------
    job:
        The requesting job.
    kind:
        What the transfer is (input, output, recovery, regular I/O or
        checkpoint); drives blocking semantics and accounting.
    volume_bytes:
        Transfer volume.
    submitted_at:
        Time the request was submitted to the scheduler.
    on_granted / on_complete:
        Callbacks invoked with the request when the transfer starts and when
        it finishes.  ``on_granted`` is where a non-blocking checkpoint
        captures the job's progress.
    granted_at / completed_at:
        Times the transfer started / finished (``None`` until they happen).
    cancelled:
        True when the request was withdrawn (job failed or was killed).
    """

    __slots__ = (
        "job",
        "kind",
        "volume_bytes",
        "submitted_at",
        "on_granted",
        "on_complete",
        "granted_at",
        "completed_at",
        "cancelled",
        "transfer",
    )

    def __init__(
        self,
        job: Job,
        kind: IOKind,
        volume_bytes: float,
        submitted_at: float,
        on_granted: Callable[["IORequest"], None] | None = None,
        on_complete: Callable[["IORequest"], None] | None = None,
    ) -> None:
        if volume_bytes < 0.0:
            raise SchedulingError("volume_bytes must be non-negative")
        self.job = job
        self.kind = kind
        self.volume_bytes = float(volume_bytes)
        self.submitted_at = submitted_at
        self.on_granted = on_granted
        self.on_complete = on_complete
        self.granted_at: float | None = None
        self.completed_at: float | None = None
        self.cancelled = False
        self.transfer: Transfer | None = None

    @property
    def in_flight(self) -> bool:
        """True while the transfer is running."""
        return self.granted_at is not None and self.completed_at is None and not self.cancelled

    @property
    def waited(self) -> float:
        """Waiting time between submission and grant (0 while still pending)."""
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.submitted_at

    def waiting_for(self, now: float) -> float:
        """How long the request has been waiting at time ``now``."""
        reference = self.granted_at if self.granted_at is not None else now
        return max(0.0, min(reference, now) - self.submitted_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = (
            "cancelled"
            if self.cancelled
            else "pending" if self.granted_at is None else "in-flight" if self.in_flight else "done"
        )
        return f"IORequest({self.job.name}, {self.kind.value}, {self.volume_bytes:.3g} B, {status})"


class IOScheduler:
    """The request ledger shared by every I/O scheduling strategy.

    Requests wait in ``_pending`` until :meth:`_dispatch` grants them and
    sit in ``_active`` while their transfer runs.  A strategy differs from
    another in at most three ways (§3): whether concurrent transfers share
    the bandwidth (:attr:`shares_bandwidth`), whether a job keeps computing
    while its checkpoint waits (:attr:`nonblocking_checkpoints`), and which
    waiting request is served next (:meth:`_select_next`).  The defaults
    give a blocking First-Come-First-Served token.
    """

    #: True when concurrent transfers share bandwidth (Oblivious only);
    #: otherwise one transfer at a time holds the I/O token.
    shares_bandwidth: bool = False
    #: True when jobs keep computing while waiting for a checkpoint token.
    nonblocking_checkpoints: bool = False

    def __init__(self, engine: SimulationEngine, io: IOSubsystem, node_mtbf_s: float) -> None:
        if node_mtbf_s <= 0.0:
            raise SchedulingError("node_mtbf_s must be positive")
        self.engine = engine
        self.io = io
        self.node_mtbf_s = node_mtbf_s
        self._pending: list[IORequest] = []
        self._active: list[IORequest] = []

    # ------------------------------------------------------------ interface
    def submit(self, request: IORequest) -> None:
        """Queue a request; it starts as soon as the strategy grants it."""
        self._pending.append(request)
        self._dispatch()

    def cancel_job(self, job: Job) -> None:
        """Withdraw all pending requests and abort in-flight transfers of ``job``."""
        for request in list(self._pending):
            if request.job is job:
                request.cancelled = True
                self._pending.remove(request)
        for request in list(self._active):
            if request.job is job:
                request.cancelled = True
                if request.transfer is not None:
                    self.io.abort(request.transfer)
                self._active.remove(request)
        self._dispatch()

    def pending_requests(self) -> tuple[IORequest, ...]:
        """Snapshot of requests waiting to be granted."""
        return tuple(self._pending)

    def active_requests(self) -> tuple[IORequest, ...]:
        """Snapshot of requests whose transfer is in flight."""
        return tuple(self._active)

    def clear(self) -> None:
        """Forget every waiting and in-flight request, for a run that is over.

        Nothing is granted, completed or cancelled: the requests keep their
        state, but their callbacks no longer keep the simulation alive.
        """
        self._pending.clear()
        self._active.clear()

    # ------------------------------------------------------------ internals
    def _dispatch(self) -> None:
        """Grant waiting requests while the file system admits another transfer."""
        pending = self._pending
        while pending and (self.shares_bandwidth or not self._active):
            request = self._select_next(tuple(pending))
            try:
                pending.remove(request)
            except ValueError:
                raise SchedulingError(
                    f"{type(self).__name__}._select_next returned a request not in the pending pool"
                ) from None
            self._start_transfer(request)

    def _select_next(self, pending: tuple[IORequest, ...]) -> IORequest:
        """Pick the next request to serve among ``pending`` (non-empty).

        Requests are kept in arrival order, so the default serves the oldest.
        """
        return pending[0]

    def _start_transfer(self, request: IORequest) -> None:
        """Grant ``request`` now and start its transfer on the I/O subsystem."""
        request.granted_at = self.engine.now
        self._active.append(request)
        if request.on_granted is not None:
            request.on_granted(request)
        request.transfer = self.io.start(
            request.volume_bytes,
            weight=float(request.job.nodes),
            on_complete=lambda transfer, req=request: self._transfer_done(req),
        )

    def _transfer_done(self, request: IORequest) -> None:
        """Retire a finished request, grant the next, then call its callback."""
        if request.cancelled:
            return
        request.completed_at = self.engine.now
        self._active.remove(request)
        self._dispatch()
        if request.on_complete is not None:
            request.on_complete(request)
