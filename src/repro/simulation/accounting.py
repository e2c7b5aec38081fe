"""Per-category node-second accounting over a measurement window.

Following §5 of the paper, performance statistics are collected over a fixed
segment of the simulation that excludes the first and last day (warm-up and
drain), and every allocated node-second is attributed to exactly one
category:

* useful categories — ``COMPUTE`` (application progress) and ``BASE_IO``
  (the un-dilated duration of input, output and regular I/O, which a
  failure-free, checkpoint-free execution would also pay);
* waste categories — ``IO_DELAY`` (waiting for, or dilation of,
  non-checkpoint I/O), ``CHECKPOINT`` (checkpoint commit time),
  ``CHECKPOINT_WAIT`` (idle wait for the checkpoint token under blocking
  strategies), ``RECOVERY`` (reading checkpoints back after failures) and
  ``LOST_WORK`` (work that had been recorded as compute but was lost to a
  failure and must be redone — it is *moved* from ``COMPUTE`` to
  ``LOST_WORK`` when the failure strikes).

Intervals are clipped to the measurement window; scalar amounts (lost work)
are attributed to the instant of the triggering event.

With ``track_jobs=True`` every attribution additionally lands in a per-job
ledger (keyed by the ``job`` id the recorder passes), which is what the
:mod:`repro.trace` drill-down decomposes.  The per-job ledger is accumulated
*separately* from the global totals — the global floating-point additions
are byte-for-byte the same statements with or without tracking, so enabling
it can never change a simulation's reported results.
"""

from __future__ import annotations

from enum import Enum, unique

from repro.errors import SimulationError

__all__ = ["Category", "Accounting"]


@unique
class Category(Enum):
    """Node-second accounting categories."""

    COMPUTE = "compute"
    BASE_IO = "base-io"
    IO_DELAY = "io-delay"
    CHECKPOINT = "checkpoint"
    CHECKPOINT_WAIT = "checkpoint-wait"
    RECOVERY = "recovery"
    LOST_WORK = "lost-work"


class Accounting:
    """Accumulates node-seconds per category inside ``[window_start, window_end]``."""

    def __init__(
        self, window_start: float, window_end: float, *, track_jobs: bool = False
    ) -> None:
        if window_end < window_start:
            raise SimulationError(
                f"invalid measurement window [{window_start}, {window_end}]"
            )
        self._start = float(window_start)
        self._end = float(window_end)
        self._totals: dict[Category, float] = {category: 0.0 for category in Category}
        self._allocated = 0.0
        #: Per-job ledgers ({job id -> {category -> node-seconds}}), kept only
        #: when requested; None keeps the hot path free of per-job work.
        self._job_totals: dict[int, dict[Category, float]] | None = (
            {} if track_jobs else None
        )

    # ------------------------------------------------------------ properties
    @property
    def window(self) -> tuple[float, float]:
        """The measurement window ``(start, end)`` in seconds."""
        return self._start, self._end

    @property
    def window_length(self) -> float:
        """Length of the measurement window (seconds)."""
        return self._end - self._start

    @property
    def allocated_node_seconds(self) -> float:
        """Node-seconds during which nodes were allocated to jobs, in-window."""
        return self._allocated

    def total(self, category: Category) -> float:
        """Accumulated node-seconds of ``category`` inside the window."""
        return self._totals[category]

    def totals(self) -> dict[Category, float]:
        """Copy of all per-category totals."""
        return dict(self._totals)

    @property
    def tracks_jobs(self) -> bool:
        """True when per-job ledgers are being kept."""
        return self._job_totals is not None

    def job_totals(self) -> dict[int, dict[Category, float]]:
        """Per-job copies of the category ledgers (``{}`` unless tracking).

        Keys appear in first-attribution order, which is deterministic for a
        given simulation; values cover every category (zero-filled).
        """
        if self._job_totals is None:
            return {}
        return {job: dict(ledger) for job, ledger in self._job_totals.items()}

    def _job_ledger(self, job: int) -> dict[Category, float]:
        assert self._job_totals is not None
        ledger = self._job_totals.get(job)
        if ledger is None:
            ledger = {category: 0.0 for category in Category}
            self._job_totals[job] = ledger
        return ledger

    # ------------------------------------------------------------ recording
    def _clip(self, start: float, end: float) -> float:
        if end < start:
            raise SimulationError(f"interval with negative length [{start}, {end}]")
        lo = max(start, self._start)
        hi = min(end, self._end)
        return max(0.0, hi - lo)

    def in_window(self, instant: float) -> bool:
        """True when ``instant`` falls inside the measurement window."""
        return self._start <= instant <= self._end

    def record_interval(
        self,
        category: Category,
        nodes: float,
        start: float,
        end: float,
        *,
        job: int | None = None,
    ) -> None:
        """Attribute ``nodes`` node-streams over ``[start, end]`` to ``category``."""
        if nodes < 0.0:
            raise SimulationError("nodes must be non-negative")
        length = self._clip(start, end)
        if length > 0.0:
            self._totals[category] += nodes * length
            if self._job_totals is not None and job is not None:
                self._job_ledger(job)[category] += nodes * length

    def move_amount(
        self,
        source: Category,
        destination: Category,
        node_seconds: float,
        at_time: float,
        *,
        job: int | None = None,
    ) -> None:
        """Re-attribute node-seconds from ``source`` to ``destination``.

        Used when a failure converts previously recorded compute time into
        lost work.  The move only happens when the triggering instant is
        inside the window; the source total may go (slightly) negative when
        part of the lost work was performed before the window opened, which
        is expected and averages out over the window length.
        """
        if node_seconds < 0.0:
            raise SimulationError("node_seconds must be non-negative")
        if self.in_window(at_time):
            self._totals[source] -= node_seconds
            self._totals[destination] += node_seconds
            if self._job_totals is not None and job is not None:
                ledger = self._job_ledger(job)
                ledger[source] -= node_seconds
                ledger[destination] += node_seconds

    def record_allocation(self, nodes: float, start: float, end: float) -> None:
        """Record that ``nodes`` nodes were allocated to a job over ``[start, end]``."""
        if nodes < 0.0:
            raise SimulationError("nodes must be non-negative")
        length = self._clip(start, end)
        if length > 0.0:
            self._allocated += nodes * length
