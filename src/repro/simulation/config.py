"""Simulation configuration.

:class:`SimulationConfig` gathers every parameter of a single run: the
platform, the application classes, the I/O scheduling strategy, the
simulated horizon and measurement window, and the random seed.  It also
derives the workload-generator specification and validates parameter
consistency so errors surface before any event is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError, short_repr
from repro.iosched.registry import StrategySpec, canonical_strategy
from repro.platform.failures import FailureModel
from repro.platform.interference import InterferenceModel
from repro.platform.spec import PlatformSpec
from repro.units import DAY, HOUR, is_finite
from repro.workloads.generator import WorkloadSpec

__all__ = ["MAX_EXPECTED_FAILURES", "SimulationConfig"]

#: Most platform failures a run may expect (horizon / system MTBF): the
#: scale of ``WorkloadSpec.max_jobs``.  The failure trace is drawn up front,
#: so a vanishing MTBF would otherwise exhaust memory before the first event.
MAX_EXPECTED_FAILURES = 100_000


@dataclass(frozen=True)
class SimulationConfig:
    """Initial conditions of one simulation run.

    Attributes
    ----------
    platform:
        The platform to simulate.
    classes:
        Application classes of the workload.
    strategy:
        The I/O scheduling strategy: a legacy name, a parameterized spec
        string (``"ordered[policy=fixed,period_s=1800]"``) or a
        :class:`~repro.iosched.registry.StrategySpec`.  Normalised to the
        canonical string form on construction, so equal configurations
        compare equal and share one cache digest.
    horizon_s:
        Length of the simulated segment (seconds).
    warmup_s / cooldown_s:
        Lengths of the excluded segments at the beginning and end of the
        horizon (§5 excludes the first and last day).  They are capped to a
        quarter of the horizon each so short test runs keep a non-empty
        measurement window.
    seed:
        Root random seed of the run (workload mix, work-time jitter and the
        failure trace each use an independent stream derived from it).
    fixed_period_s:
        Checkpoint period of the ``*-fixed`` strategy variants.
    routine_io_chunks:
        Number of equally-spaced regular-I/O transfers a job performs during
        its compute phase when its class has ``routine_io_bytes > 0``.
    share_tolerance / work_time_jitter / headroom:
        Workload-generator parameters, see
        :class:`~repro.workloads.generator.WorkloadSpec`.
    max_events:
        Safety cap on the number of simulated events.
    """

    platform: PlatformSpec
    classes: tuple[ApplicationClass, ...]
    strategy: str | StrategySpec = "least-waste"
    horizon_s: float = 8.0 * DAY
    warmup_s: float = 1.0 * DAY
    cooldown_s: float = 1.0 * DAY
    seed: int | None = None
    fixed_period_s: float = HOUR
    routine_io_chunks: int = 4
    share_tolerance: float = 0.01
    work_time_jitter: float = 0.2
    headroom: float = 1.3
    max_events: int = 20_000_000
    #: Optional adversarial interference model for the shared file system
    #: (None selects the paper's linear, throughput-conserving model).
    interference: InterferenceModel | None = None
    #: Failure inter-arrival distribution (None selects the paper's
    #: exponential process; the default exponential model normalises to None
    #: so equivalent configurations share one cache digest).
    failure_model: FailureModel | None = None
    #: When True the simulator records a per-job execution trace
    #: (see :mod:`repro.simulation.trace`), available as ``Simulation.trace``.
    collect_trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ConfigurationError("SimulationConfig requires at least one application class")
        # One validator for every spelling (legacy name, spec string,
        # StrategySpec): parse errors carry the registry's did-you-mean
        # suggestions, and the stored field is always the canonical string.
        object.__setattr__(self, "strategy", canonical_strategy(self.strategy))
        for name in ("horizon_s", "fixed_period_s"):
            value = getattr(self, name)
            if not (value > 0.0) or not is_finite(value):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {short_repr(value)}"
                )
        for name in ("warmup_s", "cooldown_s"):
            value = getattr(self, name)
            if not (value >= 0.0) or not is_finite(value):
                raise ConfigurationError(
                    f"{name} must be non-negative and finite, got {short_repr(value)}"
                )
        if self.seed is not None and (
            not isinstance(self.seed, Integral) or isinstance(self.seed, bool) or self.seed < 0
        ):
            raise ConfigurationError(
                f"seed must be None or a non-negative integer, got {short_repr(self.seed)}"
            )
        if self.routine_io_chunks < 0:
            raise ConfigurationError("routine_io_chunks must be non-negative")
        if self.max_events <= 0:
            raise ConfigurationError("max_events must be positive")
        if self.failure_model is not None:
            if not isinstance(self.failure_model, FailureModel):
                raise ConfigurationError(
                    f"failure_model must be a FailureModel, got {type(self.failure_model).__name__}"
                )
            if self.failure_model == FailureModel():
                object.__setattr__(self, "failure_model", None)
        # horizon / system MTBF, where system MTBF = node MTBF / nodes.
        expected_failures = self.horizon_s * self.platform.num_nodes / self.platform.node_mtbf_s
        if expected_failures > MAX_EXPECTED_FAILURES:
            raise ConfigurationError(
                f"the run expects {expected_failures:.4g} failures (horizon / system MTBF), "
                f"more than the {MAX_EXPECTED_FAILURES} a simulation accepts; "
                "raise node_mtbf_years or shorten the horizon"
            )
        for app in self.classes:
            if app.nodes > self.platform.num_nodes:
                raise ConfigurationError(
                    f"class {app.name!r} needs {app.nodes} nodes but platform "
                    f"{self.platform.name!r} has only {self.platform.num_nodes}"
                )

    # ------------------------------------------------------------ derived
    @property
    def effective_warmup_s(self) -> float:
        """Warm-up length, capped at a quarter of the horizon."""
        return min(self.warmup_s, self.horizon_s / 4.0)

    @property
    def effective_cooldown_s(self) -> float:
        """Cool-down length, capped at a quarter of the horizon."""
        return min(self.cooldown_s, self.horizon_s / 4.0)

    @property
    def measurement_window(self) -> tuple[float, float]:
        """The window ``[warmup, horizon - cooldown]`` used for statistics."""
        return self.effective_warmup_s, self.horizon_s - self.effective_cooldown_s

    def workload_spec(self) -> WorkloadSpec:
        """Workload-generator specification matching this configuration."""
        return WorkloadSpec(
            classes=self.classes,
            min_duration_s=self.horizon_s,
            share_tolerance=self.share_tolerance,
            work_time_jitter=self.work_time_jitter,
            headroom=self.headroom,
        )

    # ------------------------------------------------------------ variants
    def with_seed(self, seed: int | None) -> "SimulationConfig":
        """Copy of this configuration with a different seed."""
        return replace(self, seed=seed)
