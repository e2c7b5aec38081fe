"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch any library failure with a single ``except`` clause while still being
able to distinguish configuration errors from runtime simulation errors.
"""

from __future__ import annotations

#: Characters of a refused value's repr that an error message keeps.
SHORT_REPR_LIMIT = 60


def short_repr(value: object) -> str:
    """``repr(value)`` for an error message, cut after its first
    :data:`SHORT_REPR_LIMIT` characters.

    A refused value is as long as its source allows: a campaign file or an
    HTTP body can hold a 4 300-digit number.  The cut keeps the head of the
    repr and says how long it was, so an ``error:`` line or a 400 body
    stays one readable line.
    """
    text = repr(value)
    if len(text) <= SHORT_REPR_LIMIT:
        return text
    return f"{text[:SHORT_REPR_LIMIT]}… ({len(text)} characters)"


class ReproError(Exception):
    """Base class of every exception raised by the repro package."""


class ConfigurationError(ReproError):
    """A platform, workload or simulation parameter is invalid."""


class SchedulingError(ReproError):
    """The job scheduler or an I/O scheduler was driven into an invalid state."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class AnalysisError(ReproError):
    """An analytical computation (lower bound, waste model) cannot be performed."""


class SpoolError(ReproError):
    """A distributed work-spool operation failed (remote task error, timeout,
    corrupt task spec)."""
