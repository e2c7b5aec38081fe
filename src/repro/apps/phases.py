"""Job life-cycle states and I/O request kinds."""

from __future__ import annotations

from enum import Enum, unique

__all__ = ["JobState", "IOKind"]


@unique
class JobState(Enum):
    """Execution state of a job.

    The life cycle is::

        PENDING -> INPUT_IO -> { COMPUTING | CHECKPOINT_WAIT | CHECKPOINTING
                                 | REGULAR_IO | IO_WAIT }* -> OUTPUT_IO -> COMPLETED

    plus ``FAILED`` when a node failure kills the job (the restart is a new
    :class:`~repro.apps.job.Job` object).  With non-blocking strategies the
    job is *computing* while in ``CHECKPOINT_WAIT`` and ``CHECKPOINTING``
    states do not pause its progress only while the checkpoint data is being
    written; the distinction between states and whether work progresses is
    made explicit by :meth:`JobState.progresses_work`, evaluated with the
    strategy's blocking semantics by the job runtime.
    """

    PENDING = "pending"
    INPUT_IO = "input-io"
    COMPUTING = "computing"
    REGULAR_IO = "regular-io"
    IO_WAIT = "io-wait"
    CHECKPOINT_WAIT = "checkpoint-wait"
    CHECKPOINTING = "checkpointing"
    OUTPUT_IO = "output-io"
    RECOVERY_IO = "recovery-io"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True for states a job never leaves."""
        return self in (JobState.COMPLETED, JobState.FAILED)

    @property
    def allocated(self) -> bool:
        """True when the job holds compute nodes in this state."""
        return self not in (JobState.PENDING, JobState.COMPLETED, JobState.FAILED)


@unique
class IOKind(Enum):
    """Kind of an I/O request submitted to the I/O scheduler."""

    INPUT = "input"
    OUTPUT = "output"
    RECOVERY = "recovery"
    REGULAR = "regular"
    CHECKPOINT = "checkpoint"

    @property
    def is_checkpoint(self) -> bool:
        """True for checkpoint writes (the only kind that may be non-blocking)."""
        return self is IOKind.CHECKPOINT
