"""Declarative scenario specifications.

A :class:`Scenario` names one complete experimental situation: a platform
(possibly overridden from a reference machine), a workload mix, a failure
model, the set of strategies to compare and the Monte-Carlo sample size.
Scenarios are plain frozen dataclasses, so they are picklable (process
backend), hashable by content and cheap to derive from one another with
:meth:`Scenario.apply`.

``apply`` is the override engine the campaign layer builds on: it accepts
either direct field replacements (``num_runs=5``) or the platform-level
shorthand keys ``bandwidth_gbs`` / ``node_mtbf_years`` / ``num_nodes``, and
a ``workload`` override may be a callable taking the (already overridden)
platform so memory-dependent I/O volumes are rebuilt against the final
machine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from typing import Any

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError
from repro.iosched.registry import STRATEGIES, StrategySpec, canonical_strategy
from repro.platform.failures import FailureModel
from repro.platform.interference import InterferenceModel
from repro.platform.spec import PlatformSpec
from repro.simulation.config import SimulationConfig
from repro.units import DAY, GB, HOUR, YEAR

__all__ = ["Scenario", "PLATFORM_OVERRIDES"]

#: Shorthand override keys applied to the scenario's platform (in this
#: order) before any workload override is evaluated.
PLATFORM_OVERRIDES: tuple[str, ...] = ("num_nodes", "bandwidth_gbs", "node_mtbf_years")


def _float_override(key: str, value: object) -> float:
    """A finite number from an override given as a number or a numeric string.

    Booleans are refused: JSON ``true`` is not the number 1.
    """
    try:
        number = (
            float(value)
            if isinstance(value, (int, float, str)) and not isinstance(value, bool)
            else math.nan
        )
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigurationError(f"override {key!r} must be a finite number, got {value!r}")
    return number


def _is_integer(value: object) -> bool:
    """True for an integer that is not a boolean."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _int_override(key: str, value: object) -> int:
    """A whole number from an override: ``2.5`` is refused, not truncated."""
    number = _float_override(key, value)
    if not number.is_integer():
        raise ConfigurationError(f"override {key!r} must be a whole number, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


@dataclass(frozen=True)
class Scenario:
    """One named experimental situation.

    Attributes
    ----------
    name:
        Scenario label, used in reports and cache-friendly progress labels.
    platform:
        The platform to simulate.
    workload:
        Application classes of the workload mix.
    strategies:
        Strategies to evaluate on this scenario: legacy names, parameterized
        spec strings (``"ordered[policy=fixed,period_s=1800]"``) or
        :class:`~repro.iosched.spec.StrategySpec` objects, normalised to
        canonical strings on construction.  Each strategy shares the
        scenario's seeds, so strategies see identical initial conditions.
    failure_model:
        Failure inter-arrival distribution (exponential by default).
    num_runs / base_seed:
        Monte-Carlo sample size and root seed.
    horizon_days / warmup_days / cooldown_days / fixed_period_s:
        Simulated segment shape, as in :class:`SimulationConfig` but in days.
    interference:
        Optional file-system interference model (``None``: the paper's
        linear model); only the Python API can set one.
    """

    name: str
    platform: PlatformSpec
    workload: tuple[ApplicationClass, ...]
    strategies: tuple[str | StrategySpec, ...] = STRATEGIES
    failure_model: FailureModel = FailureModel()
    num_runs: int = 3
    base_seed: int | None = 0
    horizon_days: float = 6.0
    warmup_days: float = 1.0
    cooldown_days: float = 1.0
    fixed_period_s: float = HOUR
    interference: InterferenceModel | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("Scenario requires a non-empty name")
        object.__setattr__(self, "workload", self._sequence("workload"))
        object.__setattr__(self, "strategies", self._sequence("strategies"))
        if not self.workload:
            raise ConfigurationError(f"scenario {self.name!r} has an empty workload")
        for app in self.workload:
            if not isinstance(app, ApplicationClass):
                raise ConfigurationError(
                    f"scenario {self.name!r}: workload must hold application classes, "
                    f"got {type(app).__name__}"
                )
        if not self.strategies:
            raise ConfigurationError(f"scenario {self.name!r} selects no strategies")
        try:
            normalized = tuple(canonical_strategy(s) for s in self.strategies)
        except ConfigurationError as exc:
            raise ConfigurationError(f"scenario {self.name!r}: {exc}") from exc
        if len(set(normalized)) != len(normalized):
            raise ConfigurationError(
                f"scenario {self.name!r} selects the same strategy twice "
                f"(after normalisation): {', '.join(normalized)}"
            )
        object.__setattr__(self, "strategies", normalized)
        if not _is_integer(self.num_runs) or self.num_runs <= 0:
            raise ConfigurationError(
                f"scenario {self.name!r}: num_runs must be a positive integer, got {self.num_runs!r}"
            )
        if self.base_seed is not None and (not _is_integer(self.base_seed) or self.base_seed < 0):
            raise ConfigurationError(
                f"scenario {self.name!r}: base_seed must be null or a non-negative "
                f"integer, got {self.base_seed!r}"
            )
        # Signs of the other durations are SimulationConfig's to check.
        for key in ("horizon_days", "warmup_days", "cooldown_days", "fixed_period_s"):
            value = getattr(self, key)
            if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
                raise ConfigurationError(
                    f"scenario {self.name!r}: {key} must be a finite number, got {value!r}"
                )
        if not (self.horizon_days > 0.0):
            raise ConfigurationError(f"scenario {self.name!r}: horizon_days must be positive")
        if not isinstance(self.failure_model, FailureModel):
            raise ConfigurationError(
                f"scenario {self.name!r}: failure_model must be a FailureModel, "
                f"got {type(self.failure_model).__name__}"
            )
        if self.interference is not None and not isinstance(self.interference, InterferenceModel):
            raise ConfigurationError(
                f"scenario {self.name!r}: interference must be an InterferenceModel, "
                f"got {type(self.interference).__name__}"
            )

    def _sequence(self, key: str) -> tuple:
        """Field ``key`` as a tuple; a string or a non-sequence is refused."""
        value = getattr(self, key)
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise ConfigurationError(
                f"scenario {self.name!r}: {key} must be a sequence, got {type(value).__name__}"
            )
        return tuple(value)

    # ------------------------------------------------------------ configs
    def config(self, strategy: str | StrategySpec) -> SimulationConfig:
        """Simulation configuration of one strategy on this scenario."""
        strategy = canonical_strategy(strategy)
        if strategy not in self.strategies:
            raise ConfigurationError(
                f"scenario {self.name!r} does not evaluate strategy {strategy!r}"
            )
        return SimulationConfig(
            platform=self.platform,
            classes=self.workload,
            strategy=strategy,
            horizon_s=self.horizon_days * DAY,
            warmup_s=self.warmup_days * DAY,
            cooldown_s=self.cooldown_days * DAY,
            seed=self.base_seed,
            fixed_period_s=self.fixed_period_s,
            failure_model=self.failure_model,
            interference=self.interference,
        )

    def configs(self) -> list[SimulationConfig]:
        """One configuration per selected strategy, in declaration order."""
        return [self.config(strategy) for strategy in self.strategies]

    # ------------------------------------------------------------ overrides
    def apply(self, name: str | None = None, /, **overrides: object) -> "Scenario":
        """Derive a scenario by applying declarative overrides.

        Platform shorthands (``num_nodes``, ``bandwidth_gbs``,
        ``node_mtbf_years``) are applied to the platform first; a
        ``workload`` override may then be a sequence of classes or a
        callable mapping the final platform to the classes; every remaining
        key must be a :class:`Scenario` field and replaces it directly.
        """
        unknown = [
            key
            for key in overrides
            if key not in PLATFORM_OVERRIDES and key not in _FIELD_NAMES
        ]
        if unknown:
            valid = ", ".join(sorted((*PLATFORM_OVERRIDES, *_FIELD_NAMES)))
            raise ConfigurationError(
                f"unknown scenario override(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"expected one of {valid}"
            )
        shorthands = [key for key in PLATFORM_OVERRIDES if key in overrides]
        if "platform" in overrides and shorthands:
            raise ConfigurationError(
                f"override 'platform' conflicts with {', '.join(map(repr, shorthands))}: "
                "a full platform replacement would silently discard the shorthand(s); "
                "apply them to the replacement platform instead"
            )
        if name is not None and "name" in overrides:
            raise ConfigurationError(
                f"scenario name given both positionally ({name!r}) and as an "
                f"override ({overrides['name']!r}); pass one or the other"
            )

        platform = self.platform
        if "num_nodes" in overrides:
            platform = platform.with_num_nodes(_int_override("num_nodes", overrides["num_nodes"]))
        if "bandwidth_gbs" in overrides:
            platform = platform.with_bandwidth(
                _float_override("bandwidth_gbs", overrides["bandwidth_gbs"]) * GB
            )
        if "node_mtbf_years" in overrides:
            platform = platform.with_node_mtbf(
                _float_override("node_mtbf_years", overrides["node_mtbf_years"]) * YEAR
            )
        if "platform" in overrides:
            replacement = overrides["platform"]
            if not isinstance(replacement, PlatformSpec):
                raise ConfigurationError(
                    "override 'platform' must be a PlatformSpec, got "
                    f"{type(replacement).__name__}"
                )
            platform = replacement

        # Validated by __post_init__, like every other field.
        workload: Any = overrides.get("workload", self.workload)
        if callable(workload):
            workload = workload(platform)

        direct = {
            key: value
            for key, value in overrides.items()
            if key in _FIELD_NAMES and key not in ("name", "platform", "workload")
        }
        if name is None:
            override_name = overrides.get("name", self.name)
            if not isinstance(override_name, str):
                raise ConfigurationError(
                    f"override 'name' must be a string, got {type(override_name).__name__}"
                )
            name = override_name
        return replace(
            self,
            name=name,
            platform=platform,
            workload=workload,
            **direct,
        )

    # ------------------------------------------------------------ reporting
    def describe(self) -> str:
        """One-line human-readable summary of the scenario."""
        return (
            f"{self.name}: {self.platform.name} "
            f"({self.platform.num_nodes} nodes, "
            f"{self.platform.io_bandwidth_bytes_per_s / GB:g} GB/s, "
            f"node MTBF {self.platform.node_mtbf_s / YEAR:g} y), "
            f"{len(self.workload)} classes, failures {self.failure_model.describe()}, "
            f"{len(self.strategies)} strategies x {self.num_runs} runs"
        )


_FIELD_NAMES = frozenset(field.name for field in fields(Scenario))
