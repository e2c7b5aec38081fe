"""Waste models: single job (Eq. (3)) and platform-wide (Eq. (4)/(7)).

The *waste* of a job is the fraction of its allocated node-time spent on
resilience rather than useful progress.  For a job of class ``A_i`` running
on ``q_i`` nodes, checkpointing every ``P_i`` seconds with commit time
``C_i`` and recovery time ``R_i`` on a platform with individual-node MTBF
``mu``::

    W_i(P_i) = C_i / P_i + (q_i / mu) * (P_i / 2 + R_i)          (Eq. 3)

The platform waste is the node-weighted average over all concurrently
running jobs (Eq. (4)), which expands to Eq. (7) when the per-class waste is
substituted.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.daly import young_period
from repro.errors import AnalysisError, short_repr

__all__ = [
    "job_waste",
    "optimal_job_waste",
    "platform_waste",
]


def job_waste(
    period: float,
    checkpoint_time: float,
    recovery_time: float,
    q: float,
    mu_ind: float,
) -> float:
    """Steady-state waste of a single job, Eq. (3) of the paper.

    Parameters
    ----------
    period:
        Checkpointing period ``P_i`` (seconds).
    checkpoint_time:
        Interference-free checkpoint commit time ``C_i`` (seconds).
    recovery_time:
        Recovery (checkpoint read) time ``R_i`` (seconds).
    q:
        Number of nodes enrolled by the job.
    mu_ind:
        MTBF of an individual node (seconds).

    Returns
    -------
    float
        The dimensionless waste ratio ``W_i``.  The first-order model is
        only meaningful when the result is well below 1.
    """
    if period <= 0.0:
        raise AnalysisError(f"period must be positive, got {short_repr(period)}")
    if checkpoint_time < 0.0 or recovery_time < 0.0:
        raise AnalysisError("checkpoint_time and recovery_time must be non-negative")
    if q <= 0.0 or mu_ind <= 0.0:
        raise AnalysisError("q and mu_ind must be positive")
    return checkpoint_time / period + (q / mu_ind) * (period / 2.0 + recovery_time)


def optimal_job_waste(
    checkpoint_time: float,
    recovery_time: float,
    q: float,
    mu_ind: float,
) -> tuple[float, float]:
    """Waste of a job checkpointing at its unconstrained Daly period.

    Returns
    -------
    (period, waste):
        The Young/Daly period ``sqrt(2 mu_i C_i)`` (with ``mu_i = mu_ind/q``)
        and the corresponding waste from Eq. (3).
    """
    if checkpoint_time <= 0.0:
        raise AnalysisError("checkpoint_time must be positive")
    mu_job = mu_ind / q
    period = young_period(checkpoint_time, mu_job)
    return period, job_waste(period, checkpoint_time, recovery_time, q, mu_ind)


def platform_waste(
    periods: Sequence[float],
    checkpoint_times: Sequence[float],
    recovery_times: Sequence[float],
    qs: Sequence[float],
    counts: Sequence[float],
    total_nodes: float,
    mu_ind: float,
) -> float:
    """Platform waste, Eq. (4)/(7): node-weighted mean of per-class waste.

    Parameters
    ----------
    periods, checkpoint_times, recovery_times, qs, counts:
        Per-class arrays: checkpoint period ``P_i``, commit time ``C_i``,
        recovery time ``R_i``, nodes per job ``q_i`` and number of
        concurrently running jobs ``n_i``.
    total_nodes:
        ``N``, the number of nodes of the platform (used as the weight
        denominator; the classes need not exactly fill the platform).
    mu_ind:
        Individual-node MTBF (seconds).
    """
    import numpy as np

    p = np.asarray(periods, dtype=float)
    c = np.asarray(checkpoint_times, dtype=float)
    r = np.asarray(recovery_times, dtype=float)
    q = np.asarray(qs, dtype=float)
    n = np.asarray(counts, dtype=float)
    if not (p.shape == c.shape == r.shape == q.shape == n.shape):
        raise AnalysisError("per-class arrays must all have the same length")
    if p.size == 0:
        raise AnalysisError("at least one application class is required")
    if np.any(p <= 0.0):
        raise AnalysisError("all periods must be positive")
    if total_nodes <= 0.0 or mu_ind <= 0.0:
        raise AnalysisError("total_nodes and mu_ind must be positive")
    per_class = c / p + (q / mu_ind) * (p / 2.0 + r)
    weights = n * q / float(total_nodes)
    value = float(np.sum(weights * per_class))
    if not math.isfinite(value):
        raise AnalysisError("platform waste is not finite; check the inputs")
    return value
