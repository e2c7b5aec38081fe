"""Blocking Ordered FCFS I/O scheduling (§3.2).

All I/O (application I/O and checkpoints) is serialized behind a single
token granted in request-arrival order.  The granted transfer proceeds at
the full bandwidth; every other job with an outstanding request blocks
(stays idle) until its turn.  Compared to Oblivious, the average completion
time drops, but jobs pay for the serialization with idle wait time and the
achieved checkpoint period can exceed the requested one.
"""

from __future__ import annotations

from repro.iosched.base import IOScheduler

__all__ = ["OrderedScheduler"]


class OrderedScheduler(IOScheduler):
    """Single I/O token, First-Come-First-Served, blocking waits."""

    shares_bandwidth = False
    nonblocking_checkpoints = False
