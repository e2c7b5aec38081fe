"""Lower bound on platform waste under an aggregate I/O constraint (§4).

The paper derives the optimal checkpoint periods for a steady-state mix of
application classes sharing a single I/O subsystem.  Without constraints
each class would use its Young/Daly period (Eq. (5)); when the aggregate
checkpoint I/O pressure

    F = sum_i n_i * C_i / P_i                                     (Eq. 6)

would exceed 1 (the file system cannot absorb all checkpoints even when they
are perfectly serialized), the Karush-Kuhn-Tucker conditions give the
constrained optimum (Eq. (8))::

    P_i(lambda) = sqrt( 2 * mu * N * (q_i / N + lambda) * C_i / q_i**2 )

where ``lambda >= 0`` is the smallest value such that ``F <= 1``.  The
resulting platform waste (Eq. (7)) is a *lower bound* for any feasible
checkpointing strategy, because Eq. (6) is necessary but not sufficient
(the checkpoints must additionally be orchestrated into a non-overlapping
schedule).

This module implements Theorem 1: the per-class optimal periods, the
numerical search for ``lambda`` and the resulting waste bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.daly import young_period
from repro.core.waste import platform_waste
from repro.errors import AnalysisError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SteadyStateClass",
    "LowerBoundResult",
    "io_pressure",
    "constrained_periods",
    "optimal_periods",
    "platform_lower_bound",
]


@dataclass(frozen=True)
class SteadyStateClass:
    """Steady-state description of one application class.

    Attributes
    ----------
    name:
        Human-readable class name (e.g. ``"EAP"``).
    count:
        ``n_i`` — number of jobs of this class running concurrently.  May be
        fractional: the steady-state analysis only needs the average.
    nodes:
        ``q_i`` — nodes per job.
    checkpoint_time:
        ``C_i`` — interference-free checkpoint commit time (seconds).
    recovery_time:
        ``R_i`` — recovery time (seconds).  Defaults to ``checkpoint_time``
        (symmetric read/write bandwidth, as assumed in §5).
    """

    name: str
    count: float
    nodes: float
    checkpoint_time: float
    recovery_time: float | None = None

    def __post_init__(self) -> None:
        if self.count <= 0.0:
            raise AnalysisError(f"class {self.name!r}: count must be positive")
        if self.nodes <= 0.0:
            raise AnalysisError(f"class {self.name!r}: nodes must be positive")
        if self.checkpoint_time <= 0.0:
            raise AnalysisError(f"class {self.name!r}: checkpoint_time must be positive")
        if self.recovery_time is not None and self.recovery_time < 0.0:
            raise AnalysisError(f"class {self.name!r}: recovery_time must be >= 0")

    @property
    def effective_recovery_time(self) -> float:
        """Recovery time, defaulting to the checkpoint time when unspecified."""
        return self.checkpoint_time if self.recovery_time is None else self.recovery_time


@dataclass(frozen=True)
class LowerBoundResult:
    """Result of the constrained steady-state optimization (Theorem 1).

    Attributes
    ----------
    periods:
        Optimal checkpoint period per class (seconds), in input order.
    daly_periods:
        Unconstrained Young/Daly period per class (seconds).
    lam:
        The KKT multiplier ``lambda`` (0 when the I/O constraint is slack).
    io_pressure:
        Value of Eq. (6) at the optimal periods.
    waste:
        Lower bound on the platform waste (Eq. (7)).
    unconstrained_waste:
        Platform waste if every class used its Daly period regardless of the
        I/O constraint (equal to ``waste`` when the constraint is slack).
    constrained:
        True when the I/O constraint is active (``lambda > 0``).
    class_names:
        Class names, in input order.
    """

    periods: tuple[float, ...]
    daly_periods: tuple[float, ...]
    lam: float
    io_pressure: float
    waste: float
    unconstrained_waste: float
    constrained: bool
    class_names: tuple[str, ...]

    @property
    def efficiency(self) -> float:
        """Upper bound on platform efficiency, ``1 / (1 + waste)``.

        Eq. (3)/(7) express waste relative to useful work, so the
        corresponding efficiency (useful fraction of the allocated
        resources) is ``1 / (1 + W)``.
        """
        return 1.0 / (1.0 + self.waste)

    @property
    def waste_fraction(self) -> float:
        """The bound expressed as a fraction of total resources, ``W / (1 + W)``.

        This is the scale on which the simulator reports its waste ratio
        (wasted node-seconds over total accounted node-seconds), so the
        figure experiments plot this value as the "theoretical model" curve.
        Since ``x / (1 + x) <= x``, it remains a valid lower bound.
        """
        return self.waste / (1.0 + self.waste)


def _as_arrays(
    classes: Sequence[SteadyStateClass],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    import numpy as np

    if len(classes) == 0:
        raise AnalysisError("at least one application class is required")
    n = np.array([c.count for c in classes], dtype=float)
    q = np.array([c.nodes for c in classes], dtype=float)
    ckpt = np.array([c.checkpoint_time for c in classes], dtype=float)
    rec = np.array([c.effective_recovery_time for c in classes], dtype=float)
    return n, q, ckpt, rec


def io_pressure(
    periods: Iterable[float],
    classes: Sequence[SteadyStateClass],
) -> float:
    """Aggregate checkpoint I/O pressure ``F`` of Eq. (6).

    ``F <= 1`` is necessary for the periods to be feasible: the fraction of
    time the file system spends committing checkpoints cannot exceed 1 even
    with a perfect, interference-free schedule.
    """
    import numpy as np

    n, _, ckpt, _ = _as_arrays(classes)
    p = np.asarray(list(periods), dtype=float)
    if p.shape != n.shape:
        raise AnalysisError("periods must have one entry per class")
    if np.any(p <= 0.0):
        raise AnalysisError("all periods must be positive")
    return float(np.sum(n * ckpt / p))


def constrained_periods(
    lam: float,
    classes: Sequence[SteadyStateClass],
    total_nodes: float,
    mu_ind: float,
) -> np.ndarray:
    """Per-class periods of Eq. (8) for a given multiplier ``lambda``.

    With ``lam == 0`` this reduces to the Young/Daly periods.
    """
    import numpy as np

    if lam < 0.0:
        raise AnalysisError("lambda must be non-negative")
    if total_nodes <= 0.0 or mu_ind <= 0.0:
        raise AnalysisError("total_nodes and mu_ind must be positive")
    _, q, ckpt, _ = _as_arrays(classes)
    return np.sqrt(2.0 * mu_ind * total_nodes * (q / total_nodes + lam) * ckpt / (q * q))


def optimal_periods(
    classes: Sequence[SteadyStateClass],
    total_nodes: float,
    mu_ind: float,
    *,
    max_lambda: float = 1e12,
) -> tuple[np.ndarray, float]:
    """Optimal checkpoint periods under the I/O constraint (Theorem 1).

    Returns the per-class periods and the multiplier ``lambda``.  ``lambda``
    is 0 when the Daly periods already satisfy Eq. (6), otherwise it is the
    (unique) positive root of ``F(lambda) = 1`` found numerically.
    """
    daly = constrained_periods(0.0, classes, total_nodes, mu_ind)
    if io_pressure(daly, classes) <= 1.0:
        return daly, 0.0

    def pressure_minus_one(lam: float) -> float:
        return io_pressure(constrained_periods(lam, classes, total_nodes, mu_ind), classes) - 1.0

    # F(lambda) is continuous and strictly decreasing towards 0, so a root
    # exists; grow the bracket geometrically until it is enclosed.
    lo = 0.0
    hi = 1.0 / total_nodes
    while pressure_minus_one(hi) > 0.0:
        hi *= 4.0
        if hi > max_lambda:
            raise AnalysisError(
                "could not bracket lambda: the I/O constraint cannot be satisfied "
                "for any checkpoint period (checkpoint times too large?)"
            )
    # scipy is imported here, not at module level: only this branch needs it,
    # and importing it costs more than most commands take to run.
    from scipy.optimize import brentq

    lam = float(brentq(pressure_minus_one, lo, hi, xtol=1e-18, rtol=1e-12, maxiter=200))
    return constrained_periods(lam, classes, total_nodes, mu_ind), lam


def platform_lower_bound(
    classes: Sequence[SteadyStateClass],
    total_nodes: float,
    mu_ind: float,
) -> LowerBoundResult:
    """Lower bound on the platform waste (Theorem 1).

    Parameters
    ----------
    classes:
        Steady-state description of the concurrently running application
        classes.
    total_nodes:
        ``N`` — number of nodes of the platform.
    mu_ind:
        Individual-node MTBF (seconds).
    """
    n, q, ckpt, rec = _as_arrays(classes)
    daly = constrained_periods(0.0, classes, total_nodes, mu_ind)
    periods, lam = optimal_periods(classes, total_nodes, mu_ind)

    waste = platform_waste(periods, ckpt, rec, q, n, total_nodes, mu_ind)
    unconstrained = platform_waste(daly, ckpt, rec, q, n, total_nodes, mu_ind)
    pressure = io_pressure(periods, classes)
    if waste + 1e-12 < unconstrained:
        # The constrained optimum can never beat the unconstrained one.
        raise AnalysisError(
            f"internal error: constrained waste {waste} below unconstrained {unconstrained}"
        )
    return LowerBoundResult(
        periods=tuple(float(p) for p in periods),
        daly_periods=tuple(float(p) for p in daly),
        lam=lam,
        io_pressure=pressure,
        waste=waste,
        unconstrained_waste=unconstrained,
        constrained=lam > 0.0,
        class_names=tuple(c.name for c in classes),
    )
