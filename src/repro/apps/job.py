"""Jobs: single instances of an application class and their progress.

A :class:`Job` carries its static parameters (copied from the class, with
the work duration drawn by the workload generator) plus the little mutable
state the simulator updates on it: work progress, the amount of work
protected by a completed checkpoint, and the time the job ended.  A job is
a restart exactly when it has a ``parent_id``.  Every other per-job fact of
a run has its home in the simulator: the job's
runtime context (allocation time, pending transfers, the progress a granted
checkpoint captured) and the run's own counters and restart list.

Work progress is tracked through explicit ``begin_progress`` /
``pause_progress`` calls so both blocking strategies (where checkpoint waits
pause the job) and non-blocking ones (where the job keeps computing while it
waits for the I/O token) are expressed with the same machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.apps.app_class import ApplicationClass
from repro.errors import SimulationError

__all__ = ["Job"]

_job_ids = itertools.count(1)


@dataclass
class Job:
    """One schedulable job.

    Attributes
    ----------
    app_class:
        The application class this job is an instance of.
    total_work_s:
        Wall-clock compute time the job must accumulate to finish (seconds).
        For a restarted job this is the *remaining* work.
    submit_time:
        Time the job was (re-)submitted to the scheduler.
    priority:
        Smaller values are scheduled first; restarts get negative priority
        so they jump to the head of the queue (paper §2).
    input_bytes:
        Volume of the initial read.  For a restart this is the recovery read
        of the last checkpoint.
    parent_id:
        Id of the failed job this restart resubmits (for restarts), else
        ``None``; a restart of a restart names the failed restart.
    end_time:
        Time the job completed or failed (``None`` while it has not ended).
    """

    app_class: ApplicationClass
    total_work_s: float
    submit_time: float = 0.0
    priority: float = 0.0
    input_bytes: float | None = None
    parent_id: int | None = None
    job_id: int = field(default_factory=lambda: next(_job_ids))

    # --- mutable execution state (managed by the simulator) ---
    end_time: float | None = None
    work_done_s: float = 0.0
    work_protected_s: float = 0.0
    restart_count: int = 0
    #: Time at which the currently protected state was captured (set when the
    #: compute phase starts and whenever a checkpoint transfer begins); used
    #: by the Least-Waste scheduler as d_j, the failure-exposure window.
    last_capture_time: float | None = None
    _progress_since: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.total_work_s <= 0.0:
            raise SimulationError("total_work_s must be positive")
        if self.input_bytes is None:
            self.input_bytes = self.app_class.input_bytes
        if self.input_bytes < 0.0:
            raise SimulationError("input_bytes must be >= 0")

    # ------------------------------------------------------------ static views
    @property
    def nodes(self) -> int:
        """Number of nodes the job needs (``q_i`` of its class)."""
        return self.app_class.nodes

    @property
    def output_bytes(self) -> float:
        """Volume of the final output write."""
        return self.app_class.output_bytes

    @property
    def checkpoint_bytes(self) -> float:
        """Volume of one coordinated checkpoint."""
        return self.app_class.checkpoint_bytes

    @property
    def routine_io_bytes(self) -> float:
        """Total regular (non-checkpoint) I/O volume over the job's work."""
        return self.app_class.routine_io_bytes

    @property
    def is_restart(self) -> bool:
        """True when this job is the resubmission of a failed job."""
        return self.parent_id is not None

    @property
    def name(self) -> str:
        """Readable identifier, e.g. ``"EAP#12"``."""
        suffix = f"r{self.restart_count}" if self.is_restart else ""
        return f"{self.app_class.name}#{self.job_id}{suffix}"

    # ------------------------------------------------------------ progress
    def begin_progress(self, now: float) -> None:
        """Mark that the job starts accumulating work at time ``now``."""
        if self._progress_since is not None:
            raise SimulationError(f"{self.name}: begin_progress while already progressing")
        self._progress_since = now

    def pause_progress(self, now: float) -> float:
        """Stop accumulating work; returns the work done in the closed interval."""
        if self._progress_since is None:
            return 0.0
        delta = now - self._progress_since
        if delta < -1e-9:
            raise SimulationError(f"{self.name}: progress interval with negative length")
        delta = max(0.0, delta)
        self.work_done_s += delta
        self._progress_since = None
        return delta

    @property
    def progressing(self) -> bool:
        """True while the job is accumulating work."""
        return self._progress_since is not None

    def work_done_at(self, now: float) -> float:
        """Work accumulated up to ``now`` (including any open interval)."""
        done = self.work_done_s
        if self._progress_since is not None:
            done += max(0.0, now - self._progress_since)
        return min(done, self.total_work_s)

    def remaining_work_at(self, now: float) -> float:
        """Work still to perform at ``now``."""
        return max(0.0, self.total_work_s - self.work_done_at(now))

    # ------------------------------------------------------------ checkpoints
    def protect_work(self, amount_s: float) -> None:
        """Record that a checkpoint holding ``amount_s`` of work is now on stable storage."""
        if amount_s < self.work_protected_s - 1e-9:
            raise SimulationError(
                f"{self.name}: protected work cannot decrease "
                f"({amount_s} < {self.work_protected_s})"
            )
        self.work_protected_s = min(max(amount_s, self.work_protected_s), self.total_work_s)
