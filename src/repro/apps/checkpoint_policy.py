"""Checkpoint interval policies: Fixed and Young/Daly.

A policy maps (application class, platform) to the *desired* checkpoint
period ``P_i``.  The paper evaluates two policies (§3.4):

* ``Fixed`` — a platform-wide constant period, one hour by default, the
  common production heuristic ("cap the lost work at one hour");
* ``Daly`` — the per-class Young/Daly period ``sqrt(2 C_i mu_i)`` where
  ``C_i`` is the interference-free commit time at the platform's full
  bandwidth and ``mu_i = mu_ind / q_i``.

The actual interval achieved by a job may be longer than ``P_i`` when I/O
contention or the I/O scheduler dilates or delays checkpoint commits; the
policies only provide the requested period.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.apps.app_class import ApplicationClass
from repro.core.daly import job_mtbf, young_period
from repro.errors import ConfigurationError
from repro.platform.spec import PlatformSpec
from repro.units import HOUR

__all__ = ["CheckpointPolicy", "FixedPolicy", "DalyPolicy"]


class CheckpointPolicy(ABC):
    """Maps an application class and a platform to a checkpoint period."""

    @abstractmethod
    def period(self, app_class: ApplicationClass, platform: PlatformSpec) -> float:
        """Desired checkpoint period ``P_i`` in seconds."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class FixedPolicy(CheckpointPolicy):
    """Constant checkpoint period for every class (one hour by default)."""

    period_s: float = HOUR

    def __post_init__(self) -> None:
        if self.period_s <= 0.0:
            raise ConfigurationError("FixedPolicy.period_s must be positive")

    def period(self, app_class: ApplicationClass, platform: PlatformSpec) -> float:
        return self.period_s

    def __repr__(self) -> str:
        return f"FixedPolicy(period_s={self.period_s})"


@dataclass(frozen=True, repr=False)
class DalyPolicy(CheckpointPolicy):
    """Per-class Young/Daly period based on the full-bandwidth commit time."""

    def period(self, app_class: ApplicationClass, platform: PlatformSpec) -> float:
        commit = app_class.checkpoint_time(platform.io_bandwidth_bytes_per_s)
        mtbf = job_mtbf(platform.node_mtbf_s, app_class.nodes)
        return young_period(commit, mtbf)
