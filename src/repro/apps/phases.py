"""I/O request kinds."""

from __future__ import annotations

from enum import Enum, unique

__all__ = ["IOKind"]


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
