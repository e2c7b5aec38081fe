"""I/O request abstraction and the scheduler interfaces.

The simulator submits :class:`IORequest` objects to an :class:`IOScheduler`.
The scheduler decides *when* each request is granted access to the file
system (and therefore how long it waits and whether it shares bandwidth);
when the transfer starts the scheduler invokes ``on_granted`` and when it
finishes ``on_complete``, letting the job runtime advance the job's state
machine.

Two scheduler families exist:

* :class:`~repro.iosched.oblivious.ObliviousScheduler` grants everything
  immediately (transfers interfere);
* :class:`TokenScheduler` serializes transfers behind a single token and is
  specialised by the FCFS (Ordered / Ordered-NB) and Least-Waste policies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.apps.job import Job
from repro.apps.phases import IOKind
from repro.errors import SchedulingError
from repro.platform.io_subsystem import IOSubsystem, Transfer
from repro.sim.engine import SimulationEngine

__all__ = ["IORequest", "IOScheduler", "TokenScheduler"]


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
    def pending(self) -> bool:
        """True while the request waits for the file system."""
        return self.granted_at is None and not self.cancelled

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
            else "pending" if self.pending else "in-flight" if self.in_flight else "done"
        )
        return f"IORequest({self.job.name}, {self.kind.value}, {self.volume_bytes:.3g} B, {status})"


class IOScheduler(ABC):
    """Common interface of every I/O scheduling strategy."""

    #: Short strategy family name, e.g. ``"oblivious"``.
    name: str = "abstract"
    #: True when concurrent transfers share bandwidth (Oblivious only).
    shares_bandwidth: bool = False
    #: True when jobs keep computing while waiting for a checkpoint token.
    nonblocking_checkpoints: bool = False

    def __init__(self, engine: SimulationEngine, io: IOSubsystem, node_mtbf_s: float) -> None:
        if node_mtbf_s <= 0.0:
            raise SchedulingError("node_mtbf_s must be positive")
        self.engine = engine
        self.io = io
        self.node_mtbf_s = node_mtbf_s

    # ------------------------------------------------------------ interface
    @abstractmethod
    def submit(self, request: IORequest) -> None:
        """Submit a request; the scheduler decides when to start its transfer."""

    @abstractmethod
    def cancel_job(self, job: Job) -> None:
        """Withdraw all pending requests and abort in-flight transfers of ``job``."""

    @abstractmethod
    def pending_requests(self) -> tuple[IORequest, ...]:
        """Snapshot of requests waiting to be granted."""

    @abstractmethod
    def active_requests(self) -> tuple[IORequest, ...]:
        """Snapshot of requests whose transfer is in flight."""

    def clear(self) -> None:
        """Forget every waiting and in-flight request, for a run that is over.

        Nothing is granted, completed or cancelled: the requests keep their
        state, but their callbacks no longer keep the simulation alive.
        The base class queues nothing.
        """

    # ------------------------------------------------------------ shared helpers
    def _start_transfer(self, request: IORequest) -> None:
        """Grant ``request`` now and start its transfer on the I/O subsystem."""
        request.granted_at = self.engine.now
        if request.on_granted is not None:
            request.on_granted(request)
        request.transfer = self.io.start(
            request.volume_bytes,
            weight=float(request.job.nodes),
            on_complete=lambda transfer, req=request: self._transfer_done(req),
            owner=request.job,
            label=f"{request.kind.value}:{request.job.name}",
        )

    def _transfer_done(self, request: IORequest) -> None:
        if request.cancelled:
            return
        request.completed_at = self.engine.now
        self._after_completion(request)
        if request.on_complete is not None:
            request.on_complete(request)

    def _after_completion(self, request: IORequest) -> None:
        """Hook for subclasses, called before the caller's completion callback."""


class TokenScheduler(IOScheduler):
    """Serializes all transfers behind a single I/O token.

    Subclasses choose the next request to serve by overriding
    :meth:`_select_next`.  Exactly one transfer is in flight at any time, so
    every granted transfer proceeds at the full aggregate bandwidth.
    """

    def __init__(self, engine: SimulationEngine, io: IOSubsystem, node_mtbf_s: float) -> None:
        super().__init__(engine, io, node_mtbf_s)
        self._pending: list[IORequest] = []
        self._current: IORequest | None = None

    # ------------------------------------------------------------ interface
    def submit(self, request: IORequest) -> None:
        self._pending.append(request)
        self._dispatch()

    def cancel_job(self, job: Job) -> None:
        for request in list(self._pending):
            if request.job is job:
                request.cancelled = True
                self._pending.remove(request)
        if self._current is not None and self._current.job is job:
            current = self._current
            current.cancelled = True
            if current.transfer is not None:
                self.io.abort(current.transfer)
            self._current = None
            self._dispatch()

    def pending_requests(self) -> tuple[IORequest, ...]:
        return tuple(self._pending)

    def active_requests(self) -> tuple[IORequest, ...]:
        return (self._current,) if self._current is not None else ()

    def clear(self) -> None:
        self._pending.clear()
        self._current = None

    # ------------------------------------------------------------ internals
    def _dispatch(self) -> None:
        """Grant the token if it is free and requests are waiting."""
        if self._current is not None or not self._pending:
            return
        request = self._select_next(tuple(self._pending))
        if request not in self._pending:
            raise SchedulingError(
                f"{type(self).__name__}._select_next returned a request not in the pending pool"
            )
        self._pending.remove(request)
        self._current = request
        self._start_transfer(request)

    def _after_completion(self, request: IORequest) -> None:
        if self._current is request:
            self._current = None
        self._dispatch()

    @abstractmethod
    def _select_next(self, pending: tuple[IORequest, ...]) -> IORequest:
        """Pick the next request to serve among ``pending`` (non-empty)."""
