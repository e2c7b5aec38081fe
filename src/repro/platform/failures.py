"""Failure trace generation.

Following §5 of the paper, node failures are generated ahead of the
simulation: platform-wide failure instants follow an exponential
distribution whose rate is the aggregate failure rate ``N / mu_ind`` (one
failure every ``system MTBF`` seconds on average), and each failure strikes
a uniformly-random node.

The inter-arrival distribution is pluggable through :class:`FailureModel`:
the default is the paper's exponential process, and a Weibull alternative
(shape ``k < 1`` models the infant-mortality / bursty behaviour reported in
HPC failure studies) draws gaps whose *mean* still equals the platform's
system MTBF, so scenarios with different models stay comparable.

The trace is part of a simulation's *initial conditions*: the same trace is
replayed against every scheduling strategy being compared, so strategies are
evaluated on identical failure scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.platform.spec import PlatformSpec
from repro.units import is_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FAILURE_MODEL_KINDS",
    "FailureEvent",
    "FailureModel",
    "FailureTrace",
    "generate_failure_trace",
]

#: Supported inter-arrival distributions.
FAILURE_MODEL_KINDS: tuple[str, ...] = ("exponential", "weibull")


@dataclass(frozen=True)
class FailureModel:
    """Distribution of the platform-wide failure inter-arrival times.

    Attributes
    ----------
    kind:
        ``"exponential"`` (the paper's memoryless process, the default) or
        ``"weibull"``.
    shape:
        Weibull shape parameter ``k``; ``k < 1`` yields burstier failures
        (decreasing hazard rate), ``k > 1`` more regular ones.  Must be 1.0
        for the exponential kind (where it has no effect), so that equal
        models compare equal and hash identically in cache digests.

    Whatever the kind, gaps are scaled so their mean equals the platform's
    system MTBF: for Weibull the scale is ``mtbf / gamma(1 + 1/k)``.  Note
    that ``weibull`` with ``shape=1.0`` is mathematically exponential but
    consumes the random stream differently, so it is deliberately kept
    distinct (different digest, different trace).
    """

    kind: str = "exponential"
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_MODEL_KINDS:
            raise ConfigurationError(
                f"unknown failure model {self.kind!r}; "
                f"expected one of {', '.join(FAILURE_MODEL_KINDS)}"
            )
        if not (is_finite(self.shape) and self.shape > 0.0):
            raise ConfigurationError("failure model shape must be positive and finite")
        if self.kind == "exponential" and self.shape != 1.0:
            raise ConfigurationError(
                "the exponential failure model has no shape parameter "
                "(use kind='weibull' for shaped inter-arrival times)"
            )

    def draw_gaps(self, rng: np.random.Generator, mean_s: float, size: int) -> np.ndarray:
        """Draw ``size`` inter-arrival gaps with mean ``mean_s`` (seconds)."""
        if self.kind == "weibull":
            scale = mean_s / math.gamma(1.0 + 1.0 / self.shape)
            return scale * rng.weibull(self.shape, size=size)
        return rng.exponential(scale=mean_s, size=size)

    def describe(self) -> str:
        """Short human-readable label (used in scenario reports)."""
        if self.kind == "weibull":
            return f"weibull(k={self.shape:g})"
        return "exponential"


@dataclass(frozen=True)
class FailureEvent:
    """A single node failure: which node fails and when (seconds)."""

    time: float
    node_id: int


class FailureTrace:
    """An immutable, time-ordered sequence of :class:`FailureEvent`.

    Iterate it for the events; every event must lie in ``[0, horizon]``, so
    an injected trace is checked against the horizon it is declared for.
    """

    def __init__(self, events: Sequence[FailureEvent], horizon: float) -> None:
        self._events = tuple(sorted(events, key=lambda e: e.time))
        for event in self._events:
            if event.time < 0.0 or event.time > horizon:
                raise ConfigurationError(
                    f"failure at t={event.time} outside the trace horizon [0, {horizon}]"
                )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self._events)


def generate_failure_trace(
    platform: PlatformSpec,
    horizon_s: float,
    rng: np.random.Generator,
    model: FailureModel | None = None,
) -> FailureTrace:
    """Draw a failure trace for ``platform`` over ``[0, horizon_s]``.

    Inter-arrival times follow ``model`` (exponential by default) with mean
    ``platform.system_mtbf_s``; each failure is assigned a uniformly random
    node id.  Gaps are drawn in blocks sized for the expected count
    (``horizon / mean`` plus a margin) and the node assignments are
    pre-materialised in one batched draw, so generation costs O(failures)
    array work rather than one generator call per event.

    Parameters
    ----------
    platform:
        The platform whose size and node MTBF define the failure process.
    horizon_s:
        Length of the interval to cover (seconds).
    rng:
        Source of randomness (use a dedicated stream so the trace does not
        depend on how many other random draws the simulation makes).
    model:
        Inter-arrival distribution; ``None`` selects the exponential model
        and is bit-identical to the historical behaviour.
    """
    if horizon_s < 0.0:
        raise ConfigurationError("horizon_s must be non-negative")
    if model is None:
        model = FailureModel()
    times = _failure_times(model, rng, platform.system_mtbf_s, horizon_s)
    node_ids = rng.integers(low=0, high=platform.num_nodes, size=len(times))
    events = [FailureEvent(time=t, node_id=int(n)) for t, n in zip(times, node_ids)]
    return FailureTrace(events, horizon=horizon_s)


def _failure_times(
    model: FailureModel, rng: np.random.Generator, mean_s: float, horizon_s: float
) -> list[float]:
    """Accumulate inter-arrival gaps into failure instants in ``[0, horizon]``.

    Gaps are drawn in whole blocks sized for the expected count until their
    running float64 sum (from 0.0) passes the horizon, and nothing more is
    drawn: the node ids drawn next depend on exactly this use of ``rng``.
    """
    block = max(16, int(horizon_s / mean_s * 1.5) + 16)
    times: list[float] = []
    current = 0.0
    while current <= horizon_s:
        for gap in model.draw_gaps(rng, mean_s, block).tolist():
            current += gap
            if current > horizon_s:
                return times
            times.append(current)
    return times
