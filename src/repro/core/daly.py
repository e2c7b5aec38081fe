"""Young/Daly optimal checkpoint periods and MTBF scaling.

The paper (§1, §2 and Eq. (5)) uses the first-order Young/Daly formula for
the optimal checkpoint period of a single job::

    P_opt = sqrt(2 * mu * C)

where ``C`` is the (interference-free) checkpoint commit time and ``mu`` the
MTBF seen by the job.  For a job enrolling ``q`` processors on a platform
whose individual-processor MTBF is ``mu_ind``, ``mu = mu_ind / q``.

This module provides those formulas plus Daly's higher-order refinement,
which is exposed for completeness (the paper and the simulator both use the
first-order form).
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError, short_repr
from repro.units import is_finite

__all__ = [
    "job_mtbf",
    "system_mtbf",
    "young_period",
    "daly_period",
    "daly_period_high_order",
    "checkpoint_time",
]


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not is_finite(value):
        raise AnalysisError(f"{name} must be a positive finite number, got {short_repr(value)}")


def job_mtbf(mu_ind: float, q: int | float) -> float:
    """MTBF experienced by a job enrolling ``q`` processors.

    Follows the classical scaling rule ``mu_job = mu_ind / q`` (paper §1):
    a job running on ``q`` processors sees failures ``q`` times as often as
    a single processor.

    Parameters
    ----------
    mu_ind:
        MTBF of an individual processor, in seconds.
    q:
        Number of processors enrolled by the job (must be >= 1).
    """
    _check_positive("mu_ind", mu_ind)
    if q < 1:
        raise AnalysisError(f"q must be >= 1, got {short_repr(q)}")
    return mu_ind / float(q)


def system_mtbf(mu_ind: float, num_nodes: int | float) -> float:
    """MTBF of the whole platform of ``num_nodes`` processors.

    Identical scaling rule as :func:`job_mtbf`; provided as a separate name
    because experiments are parameterised by *node* MTBF while the paper
    quotes the corresponding *system* MTBF (e.g. a 2-year node MTBF on Cielo
    maps to roughly one failure per hour platform-wide).
    """
    return job_mtbf(mu_ind, num_nodes)


def young_period(checkpoint_time_s: float, mtbf_s: float) -> float:
    """First-order optimal checkpoint period ``sqrt(2 * mu * C)``.

    Parameters
    ----------
    checkpoint_time_s:
        Interference-free checkpoint commit duration ``C`` (seconds).
    mtbf_s:
        MTBF ``mu`` seen by the job (seconds).  Use :func:`job_mtbf` to
        derive it from the individual-processor MTBF.
    """
    _check_positive("checkpoint_time_s", checkpoint_time_s)
    _check_positive("mtbf_s", mtbf_s)
    return math.sqrt(2.0 * mtbf_s * checkpoint_time_s)


def daly_period(checkpoint_time_s: float, mtbf_s: float) -> float:
    """Alias of :func:`young_period`.

    The paper refers to the first-order period as the "Daly period"
    (``P_Daly = sqrt(2 C mu)``); both names are provided so code reads like
    the paper.
    """
    return young_period(checkpoint_time_s, mtbf_s)


def daly_period_high_order(checkpoint_time_s: float, mtbf_s: float) -> float:
    """Daly's higher-order estimate of the optimum checkpoint period.

    Implements the refinement from Daly (FGCS 2006)::

        P = C + sqrt(2 C mu) * (1 + 1/3 sqrt(C / (2 mu)) + (C / (2 mu)) / 9) - C   if C < 2 mu
        P = mu                                                                     otherwise

    expressed here as the *total* period between the starts of two
    consecutive checkpoints.  The simulator does not use this form (the
    paper uses the first-order one), but it is useful for sensitivity
    studies.
    """
    _check_positive("checkpoint_time_s", checkpoint_time_s)
    _check_positive("mtbf_s", mtbf_s)
    c, mu = checkpoint_time_s, mtbf_s
    if c >= 2.0 * mu:
        return mu
    ratio = c / (2.0 * mu)
    return math.sqrt(2.0 * mu * c) * (1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0)


def checkpoint_time(checkpoint_bytes: float, bandwidth_bytes_per_s: float) -> float:
    """Interference-free checkpoint commit time ``C = size / beta``.

    Parameters
    ----------
    checkpoint_bytes:
        Size of the (coordinated) checkpoint of the whole job, in bytes.
    bandwidth_bytes_per_s:
        Aggregate file-system bandwidth available to the transfer, bytes/s.
    """
    _check_positive("checkpoint_bytes", checkpoint_bytes)
    _check_positive("bandwidth_bytes_per_s", bandwidth_bytes_per_s)
    return checkpoint_bytes / bandwidth_bytes_per_s
