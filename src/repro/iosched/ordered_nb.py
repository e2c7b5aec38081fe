"""Non-blocking Ordered FCFS I/O scheduling (§3.3).

The token is still granted First-Come-First-Served, but a job waiting for a
*checkpoint* token keeps computing until the scheduler signals that the
token is available; the checkpoint then captures the job's state at that
instant.  Initial input, final output and recovery I/O remain blocking (the
job cannot progress without its data).

Postponing a checkpoint increases the job's exposure to failures, but if the
postponed checkpoint completes, a later failure rolls back to the (more
recent) postponed state rather than to the originally requested instant.
"""

from __future__ import annotations

from repro.iosched.base import IOScheduler

__all__ = ["OrderedNBScheduler"]


class OrderedNBScheduler(IOScheduler):
    """FCFS token with non-blocking checkpoint waits."""

    shares_bandwidth = False
    nonblocking_checkpoints = True
