"""Pluggable I/O interference models.

The paper's baseline model (§2) is *linear*: when several transfers share
the file system, the aggregate throughput stays constant and is split
proportionally to the node counts of the requesting jobs.  Footnote 2 of the
paper notes that "a more adversarial interference model can be substituted";
this module provides that hook.

* :class:`LinearInterference` — the paper's model: aggregate bandwidth is
  conserved regardless of the number of concurrent streams.
* :class:`DegradingInterference` — an adversarial model where each
  additional concurrent stream costs a fraction of the aggregate throughput
  (lock contention, disk-head thrashing, metadata pressure):
  ``beta_eff(k) = beta / (1 + alpha * (k - 1))``.
* :class:`CappedConcurrencyInterference` — aggregate throughput is conserved
  up to ``max_streams`` concurrent transfers and degrades linearly beyond
  that, modelling a file system with a fixed number of I/O servers.

All models only modulate the *aggregate* throughput; the per-transfer split
remains proportional to the transfer weights, as in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError, short_repr
from repro.units import is_finite

__all__ = [
    "InterferenceModel",
    "LinearInterference",
    "DegradingInterference",
    "CappedConcurrencyInterference",
]


class InterferenceModel(ABC):
    """Maps (nominal bandwidth, number of concurrent streams) to an effective
    aggregate bandwidth."""

    #: Short identifier used in reports.
    name: str = "abstract"

    @abstractmethod
    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        """Aggregate bandwidth available when ``num_streams`` transfers are active."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class LinearInterference(InterferenceModel):
    """The paper's model: aggregate throughput is conserved (fair sharing)."""

    name = "linear"

    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        if num_streams <= 0:
            return nominal_bandwidth
        return nominal_bandwidth


@dataclass(frozen=True, repr=False)
class DegradingInterference(InterferenceModel):
    """Each extra concurrent stream costs a fraction ``alpha`` of throughput.

    ``alpha = 0`` reduces to the linear model; ``alpha = 1`` halves the
    aggregate throughput with two streams, divides it by three with three
    streams, and so on.
    """

    alpha: float = 0.25
    name = "degrading"

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0 and is_finite(self.alpha)):
            raise ConfigurationError(
                "DegradingInterference.alpha must be finite and >= 0, "
                f"got {short_repr(self.alpha)}"
            )

    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        if num_streams <= 1:
            return nominal_bandwidth
        return nominal_bandwidth / (1.0 + self.alpha * (num_streams - 1))

    def __repr__(self) -> str:
        return f"DegradingInterference(alpha={self.alpha})"


@dataclass(frozen=True, repr=False)
class CappedConcurrencyInterference(InterferenceModel):
    """Full throughput up to ``max_streams`` transfers, degrading beyond.

    Beyond the cap, the aggregate throughput shrinks proportionally to the
    overload: ``beta * max_streams / k`` for ``k > max_streams``.
    """

    max_streams: int = 4
    name = "capped"

    def __post_init__(self) -> None:
        if self.max_streams < 1:
            raise ConfigurationError("CappedConcurrencyInterference.max_streams must be >= 1")

    def effective_bandwidth(self, nominal_bandwidth: float, num_streams: int) -> float:
        if num_streams <= self.max_streams:
            return nominal_bandwidth
        return nominal_bandwidth * self.max_streams / num_streams

    def __repr__(self) -> str:
        return f"CappedConcurrencyInterference(max_streams={self.max_streams})"
