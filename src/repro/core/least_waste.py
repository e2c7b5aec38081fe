"""Least-Waste candidate scoring (§3.5, Eq. (1) and (2)).

When the I/O token becomes free, the Least-Waste scheduler considers every
pending request and grants the token to the one whose service minimizes the
expected waste inflicted on *all the other* candidates:

* an **I/O candidate** (initial input, final output, recovery, or regular
  I/O) of duration ``v_i`` keeps its ``q_i`` processors idle; every other
  I/O candidate ``j`` accumulates deterministic waste ``q_j (d_j + v_i)``
  where ``d_j`` is how long it has already been waiting;
* a **checkpoint candidate** keeps computing while it waits, but remains
  exposed to failures: its expected waste over the granted transfer of
  duration ``T`` is ``(T / mu_ind) * q_j^2 * (R_j + d_j + T/2)`` where
  ``d_j`` is the time since its last checkpoint.

The candidate with the minimal total expected waste is served next.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Union

from repro.errors import AnalysisError

__all__ = [
    "IOCandidate",
    "CkptCandidate",
    "Candidate",
    "expected_waste",
    "select_candidate",
]


@dataclass(frozen=True)
class IOCandidate:
    """A pending blocking I/O request (input, output, recovery or regular I/O).

    Attributes
    ----------
    key:
        Opaque identifier used to report the selection (e.g. the job id).
    duration:
        ``v_i`` — time the transfer will occupy the I/O subsystem (seconds).
    nodes:
        ``q_i`` — processors enrolled by the requesting job.
    waited:
        ``d_i`` — how long the job has already been blocked on this request
        (seconds).
    """

    key: object
    duration: float
    nodes: float
    waited: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise AnalysisError("IOCandidate.duration must be positive")
        if self.nodes <= 0.0:
            raise AnalysisError("IOCandidate.nodes must be positive")
        if self.waited < 0.0:
            raise AnalysisError("IOCandidate.waited must be non-negative")


@dataclass(frozen=True)
class CkptCandidate:
    """A pending (non-blocking) checkpoint request.

    Attributes
    ----------
    key:
        Opaque identifier used to report the selection (e.g. the job id).
    duration:
        ``C_i`` — checkpoint commit time at full bandwidth (seconds).
    nodes:
        ``q_i`` — processors enrolled by the requesting job.
    since_last_checkpoint:
        ``d_i`` — time since the job's last protected state (seconds); this
        is the amount of work at risk if a failure strikes now.
    recovery_time:
        ``R_i`` — time to read back the last checkpoint after a failure
        (seconds).
    """

    key: object
    duration: float
    nodes: float
    since_last_checkpoint: float
    recovery_time: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise AnalysisError("CkptCandidate.duration must be positive")
        if self.nodes <= 0.0:
            raise AnalysisError("CkptCandidate.nodes must be positive")
        if self.since_last_checkpoint < 0.0:
            raise AnalysisError("CkptCandidate.since_last_checkpoint must be non-negative")
        if self.recovery_time < 0.0:
            raise AnalysisError("CkptCandidate.recovery_time must be non-negative")


Candidate = Union[IOCandidate, CkptCandidate]


def _service_duration(candidate: Candidate) -> float:
    return candidate.duration


def expected_waste(
    selected: Candidate,
    candidates: Sequence[Candidate],
    mu_ind: float,
) -> float:
    """Expected waste ``W_i`` of serving ``selected`` next (Eq. (1)/(2)).

    The waste is accumulated over every *other* candidate in ``candidates``
    (the selected one is excluded if present, compared by identity).

    Parameters
    ----------
    selected:
        The candidate whose transfer would be granted the I/O token.
    candidates:
        The full pool of pending candidates (may or may not contain
        ``selected``).
    mu_ind:
        Individual-node MTBF (seconds), used for the failure-exposure term
        of checkpoint candidates.
    """
    if mu_ind <= 0.0:
        raise AnalysisError("mu_ind must be positive")
    duration = _service_duration(selected)
    total = 0.0
    for other in candidates:
        if other is selected:
            continue
        if isinstance(other, IOCandidate):
            # Deterministic: q_j processors stay idle for d_j + duration.
            total += other.nodes * (other.waited + duration)
        elif isinstance(other, CkptCandidate):
            # Probabilistic: failure probability duration/mu_j with
            # mu_j = mu_ind / q_j, losing R_j + d_j + duration/2 on q_j nodes.
            total += (
                duration
                / mu_ind
                * other.nodes
                * other.nodes
                * (other.recovery_time + other.since_last_checkpoint + duration / 2.0)
            )
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unknown candidate type: {type(other)!r}")
    return total


def select_candidate(
    candidates: Sequence[Candidate],
    mu_ind: float,
) -> tuple[Candidate, float]:
    """Pick the candidate whose service minimizes the expected waste.

    Ties are broken in favour of the candidate appearing first in
    ``candidates`` (i.e. FCFS order when the pool is kept in arrival order),
    which matches the behaviour of the Ordered-NB scheduler when all
    candidates are equivalent.  So is a pool where no score is finite (a
    tiny ``mu_ind`` overflows every checkpoint term to ``inf``): the first
    candidate is returned with its own score.

    Returns
    -------
    (candidate, waste):
        The selected candidate and its expected waste.

    Raises
    ------
    AnalysisError
        If ``candidates`` is empty.
    """
    if len(candidates) == 0:
        raise AnalysisError("select_candidate requires at least one candidate")
    best: Candidate | None = None
    best_waste = float("inf")
    for candidate in candidates:
        waste = expected_waste(candidate, candidates, mu_ind)
        if waste < best_waste:
            best = candidate
            best_waste = waste
    if best is None:  # every score is inf or NaN
        best = candidates[0]
        best_waste = expected_waste(best, candidates, mu_ind)
    return best, best_waste
