"""Oblivious I/O scheduling (§3.1): no coordination, linear interference.

Every request starts its transfer immediately.  Concurrent transfers share
the aggregate bandwidth proportionally to the node counts of their jobs
(the :class:`~repro.platform.io_subsystem.IOSubsystem` implements the
fair-share arithmetic), so commits are dilated whenever I/O overlaps.  This
models today's uncoordinated production behaviour and is the baseline the
cooperative strategies are compared against.
"""

from __future__ import annotations

from repro.iosched.base import IOScheduler

__all__ = ["ObliviousScheduler"]


class ObliviousScheduler(IOScheduler):
    """Uncoordinated I/O: all transfers start at once and interfere."""

    shares_bandwidth = True
    nonblocking_checkpoints = False
