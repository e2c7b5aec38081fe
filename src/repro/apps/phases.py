"""Job life-cycle states and I/O request kinds."""

from __future__ import annotations

from enum import Enum, unique

__all__ = ["JobState", "IOKind"]


@unique
class JobState(Enum):
    """Execution state of a job.

    The life cycle is::

        PENDING -> { INPUT_IO | RECOVERY_IO } -> { COMPUTING | CHECKPOINT_WAIT
                   | CHECKPOINTING | REGULAR_IO }* -> OUTPUT_IO -> COMPLETED

    plus ``FAILED`` when a node failure kills the job (the restart is a new
    :class:`~repro.apps.job.Job` object, which reads its last checkpoint in
    ``RECOVERY_IO``).  Whether work progresses is not a property of the
    state: under a non-blocking strategy the job keeps computing in
    ``CHECKPOINT_WAIT`` and pauses only in ``CHECKPOINTING``, while the data
    is written; under a blocking one it pauses in both.  The simulator
    starts and pauses progress itself, with the strategy's blocking
    semantics.
    """

    PENDING = "pending"
    INPUT_IO = "input-io"
    COMPUTING = "computing"
    REGULAR_IO = "regular-io"
    CHECKPOINT_WAIT = "checkpoint-wait"
    CHECKPOINTING = "checkpointing"
    OUTPUT_IO = "output-io"
    RECOVERY_IO = "recovery-io"
    COMPLETED = "completed"
    FAILED = "failed"


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
