"""Strategy specs, the open kind registry and the paper's seven names.

A *strategy* pairs an I/O scheduler family with a checkpoint-period policy
(§3, §3.4).  It is selected by a :class:`StrategySpec`: a *kind* (the
scheduler family, e.g. ``"ordered"``) plus typed parameters declared by the
kind's registration, with a canonical, round-trippable string form::

    ordered                               # all defaults (Young/Daly periods)
    ordered[policy=fixed]                 # fixed periods, length from the run
    ordered[policy=fixed,period_s=1800]   # explicit 30-minute fixed period
    least-waste[mtbf_bias=2]              # tuned Least-Waste risk model

Parsing is whitespace- and case-insensitive; formatting emits parameters in
their declared order with default values omitted.  The seven named
strategies of the paper remain valid aliases:

================  =====================  ==============
name              scheduler              period policy
================  =====================  ==============
oblivious-fixed   Oblivious              Fixed (1 h)
oblivious-daly    Oblivious              Young/Daly
ordered-fixed     Ordered (blocking)     Fixed (1 h)
ordered-daly      Ordered (blocking)     Young/Daly
orderednb-fixed   Ordered-NB             Fixed (1 h)
orderednb-daly    Ordered-NB             Young/Daly
least-waste       Least-Waste            Young/Daly
================  =====================  ==============

A spec that collapses onto one of these combinations formats back to the
bare name, so the cache keys and digests of the seven names are
byte-identical to what they always were.

:func:`make_strategy` builds a :class:`Strategy` from a name or spec;
``Strategy.make_scheduler`` instantiates the scheduler against a concrete
engine and I/O subsystem, and ``Strategy.policy`` provides the period.

Plug-in contract (mirroring ``repro.exec.runner.register_backend``): a new
kind registers with :func:`register_strategy` and a factory called as
``factory(spec, *, fixed_period_s)`` — the parsed :class:`StrategySpec` and
the run's fallback period for ``policy=fixed`` without ``period_s`` — that
returns a :class:`Strategy` (the ``registry`` lint rule checks the
signature, :func:`make_strategy` the return type).  ``params`` declares the
accepted parameters in canonical order, and ``validate`` may refuse a
combination when the spec is parsed.  Registering an existing kind or
shadowing one of the seven names needs ``replace_existing=True``.  The
canonical spec string is the cache key and crosses the spool as text, so a
process that runs a custom kind must import its registering module.
"""

from __future__ import annotations

import difflib
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.apps.checkpoint_policy import CheckpointPolicy, DalyPolicy, FixedPolicy
from repro.errors import ConfigurationError, short_repr
from repro.iosched.base import IOScheduler
from repro.iosched.least_waste import LeastWasteScheduler
from repro.iosched.oblivious import ObliviousScheduler
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.ordered_nb import OrderedNBScheduler
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.units import HOUR

__all__ = [
    "ParamSpec",
    "STRATEGIES",
    "Strategy",
    "StrategyKindInfo",
    "StrategySpec",
    "canonical_strategy",
    "format_param_value",
    "kind_info",
    "make_strategy",
    "parse_strategy",
    "register_strategy",
    "resolved_strategy_spec",
    "strategy_kinds",
]


def format_param_value(value: object) -> str:
    """Canonical string form of one parameter value.

    Floats use shortest-exact ``repr`` (so values round-trip bit-exactly)
    with a trailing ``.0`` dropped — ``1800.0`` formats as ``1800`` and
    parses back to the same float.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = repr(value)
        return text[:-2] if text.endswith(".0") else text
    return str(value)


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one strategy parameter.

    Attributes
    ----------
    name:
        Parameter key (lowercase) as written in spec strings.
    type:
        Value type: ``float``, ``int``, ``str`` or ``bool``.  String values
        are normalised to lowercase so canonical forms are deterministic.
    default:
        Value assumed when the parameter is omitted; a parameter given at
        its default is dropped from the canonical form.  ``None`` marks a
        parameter with no inherent default (e.g. ``period_s``, which falls
        back to the run's ``fixed_period_s``) — such values always stay
        explicit.
    choices:
        Optional closed set of accepted values.
    positive:
        Require numeric values to be strictly positive.
    help:
        One-line description shown by ``coopckpt strategies``.
    """

    name: str
    type: type = float
    default: object | None = None
    choices: tuple[object, ...] | None = None
    positive: bool = False
    help: str = ""

    def coerce(self, value: object, *, context: str) -> object:
        """Validate and convert one raw value (string or Python) to the
        declared type, raising :class:`ConfigurationError` on mismatch."""
        try:
            if self.type is bool:
                if isinstance(value, bool):
                    coerced: object = value
                elif isinstance(value, str) and value.strip().lower() in ("true", "false"):
                    coerced = value.strip().lower() == "true"
                else:
                    raise ValueError(value)
            elif self.type is float:
                if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise ValueError(value)
                coerced = float(value)
                # Non-finite values would poison cache keys (and NaN breaks
                # spec equality), so they are never valid parameters.
                if not math.isfinite(coerced):
                    raise ValueError(value)
            elif self.type is int:
                if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise ValueError(value)
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                coerced = int(value)
            else:
                coerced = str(value).strip().lower()
        except (TypeError, ValueError, OverflowError):  # an int too large for a float
            raise ConfigurationError(
                f"{context}: parameter {self.name!r} expects a "
                f"{self.type.__name__}, got {short_repr(value)}"
            ) from None
        if self.choices is not None and coerced not in self.choices:
            raise ConfigurationError(
                f"{context}: parameter {self.name!r} must be one of "
                f"{', '.join(map(format_param_value, self.choices))}, got {short_repr(value)}"
            )
        if self.positive and isinstance(coerced, (int, float)) and coerced <= 0:
            raise ConfigurationError(
                f"{context}: parameter {self.name!r} must be positive, got {short_repr(value)}"
            )
        return coerced

    def describe_default(self) -> str:
        """Human-readable default for listings."""
        return "-" if self.default is None else format_param_value(self.default)


@dataclass(frozen=True)
class StrategyKindInfo:
    """One registered strategy kind: factory, parameter declarations, docs."""

    kind: str
    factory: Callable[..., object]
    params: tuple[ParamSpec, ...] = ()
    description: str = ""
    display: str = ""
    #: Optional cross-parameter validation hook, called with the normalised
    #: spec after per-parameter checks (e.g. "period_s needs policy=fixed").
    validate: Callable[["StrategySpec"], None] | None = None

    def param(self, name: str) -> ParamSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None


#: Registry of strategy kinds: kind -> registration info.  The built-in
#: families register at the bottom of this module.
_KINDS: dict[str, StrategyKindInfo] = {}

#: The paper's seven strategy names, each an alias for (kind, params); the
#: canonical form of a spec matching one of these combinations is the bare
#: name, which keeps historical cache keys and digests byte-identical.
_LEGACY_ALIASES: dict[str, tuple[str, tuple[tuple[str, object], ...]]] = {
    "oblivious-fixed": ("oblivious", (("policy", "fixed"),)),
    "oblivious-daly": ("oblivious", ()),
    "ordered-fixed": ("ordered", (("policy", "fixed"),)),
    "ordered-daly": ("ordered", ()),
    "orderednb-fixed": ("orderednb", (("policy", "fixed"),)),
    "orderednb-daly": ("orderednb", ()),
    "least-waste": ("least-waste", ()),
}

_LEGACY_BY_SPEC: dict[tuple[str, tuple[tuple[str, object], ...]], str] = {
    target: name for name, target in _LEGACY_ALIASES.items()
}

#: Names of the seven strategies evaluated in the paper, in the order they
#: appear in the figures.  Parameterized specs and registered kinds are
#: accepted everywhere these names are.
STRATEGIES: tuple[str, ...] = tuple(_LEGACY_ALIASES)


def strategy_kinds() -> tuple[str, ...]:
    """Names of every registered strategy kind, registration order."""
    return tuple(_KINDS)


def _unknown_strategy_error(name: str) -> ConfigurationError:
    valid = [*_KINDS, *(a for a in _LEGACY_ALIASES if a not in _KINDS)]
    message = f"unknown strategy {short_repr(name)}; expected one of {', '.join(valid)}"
    close = difflib.get_close_matches(name.strip().lower(), valid, n=1, cutoff=0.6)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return ConfigurationError(message)


def kind_info(kind: str) -> StrategyKindInfo:
    """Registration info of one strategy kind (did-you-mean on unknowns)."""
    info = _KINDS.get(kind.strip().lower())
    if info is None:
        raise _unknown_strategy_error(kind)
    return info


def register_strategy(
    kind: str,
    factory: Callable[..., object],
    *,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    display: str = "",
    validate: Callable[["StrategySpec"], None] | None = None,
    replace_existing: bool = False,
) -> None:
    """Register a strategy kind under ``kind``.

    ``factory`` receives the parsed :class:`StrategySpec` and the run's
    ``fixed_period_s`` fallback as a keyword argument, and returns a
    :class:`Strategy`.  ``params`` declares the accepted parameters in the
    order the canonical form lists them.  Registering an existing kind (or
    shadowing a legacy alias) requires ``replace_existing=True`` so typos
    don't silently replace built-ins.
    """
    key = str(kind).strip().lower()
    if not key:
        raise ConfigurationError("strategy kind must be non-empty")
    if any(ch in key for ch in "[],= \t"):
        raise ConfigurationError(
            f"strategy kind {key!r} may not contain brackets, commas, '=' or whitespace"
        )
    if not replace_existing and (key in _KINDS or key in _LEGACY_ALIASES):
        raise ConfigurationError(
            f"strategy {key!r} is already registered; pass replace_existing=True to override"
        )
    declared = [param.name for param in params]
    if len(set(declared)) != len(declared):
        raise ConfigurationError(f"strategy {key!r} declares duplicate parameter names")
    _KINDS[key] = StrategyKindInfo(
        kind=key,
        factory=factory,
        params=tuple(params),
        description=description,
        display=display or key,
        validate=validate,
    )


@dataclass(frozen=True)
class StrategySpec:
    """A strategy kind plus typed parameters, normalised on construction.

    ``params`` may be given as a mapping or as ``(name, value)`` pairs;
    values are validated against the kind's declarations, parameters at
    their default value are dropped, and the remainder is ordered by
    declaration, so two specs compare (and hash) equal iff they select the
    same strategy.  The canonical string form is :attr:`canonical`.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        info = kind_info(self.kind)
        raw = self.params
        if isinstance(raw, Mapping):
            raw = tuple(raw.items())
        object.__setattr__(self, "kind", info.kind)
        object.__setattr__(self, "params", self._normalize(info, tuple(raw)))
        if info.validate is not None:
            info.validate(self)

    @staticmethod
    def _normalize(
        info: StrategyKindInfo, raw: tuple[tuple[str, object], ...]
    ) -> tuple[tuple[str, object], ...]:
        context = f"strategy {info.kind!r}"
        values: dict[str, object] = {}
        for key, value in raw:
            name = str(key).strip().lower()
            param = info.param(name)
            if param is None:
                declared = ", ".join(p.name for p in info.params) or "(none)"
                message = (
                    f"{context} has no parameter {short_repr(name)}; "
                    f"declared parameters: {declared}"
                )
                close = difflib.get_close_matches(
                    name, [p.name for p in info.params], n=1, cutoff=0.6
                )
                if close:
                    message += f" (did you mean {close[0]!r}?)"
                raise ConfigurationError(message)
            if name in values:
                raise ConfigurationError(f"{context}: duplicate parameter {name!r}")
            values[name] = param.coerce(value, context=context)
        return tuple(
            (param.name, values[param.name])
            for param in info.params
            if param.name in values and values[param.name] != param.default
        )

    # ------------------------------------------------------------ access
    def get(self, name: str, default: object | None = None) -> object | None:
        """Value of parameter ``name``, or the kind's declared default, or
        ``default`` when neither exists."""
        for key, value in self.params:
            if key == name:
                return value
        param = kind_info(self.kind).param(name)
        if param is not None and param.default is not None:
            return param.default
        return default

    @property
    def canonical(self) -> str:
        """Canonical, round-trippable string form (the cache-key form).

        Specs matching one of the paper's seven strategies collapse to the
        bare legacy name, preserving historical cache keys.
        """
        legacy = _LEGACY_BY_SPEC.get((self.kind, self.params))
        if legacy is not None:
            return legacy
        if not self.params:
            return self.kind
        body = ",".join(f"{key}={format_param_value(value)}" for key, value in self.params)
        return f"{self.kind}[{body}]"

    def __str__(self) -> str:
        return self.canonical

    # ------------------------------------------------------------ parsing
    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse ``"kind"`` or ``"kind[key=value,...]"`` (or a legacy name).

        Whitespace around tokens and letter case are ignored; parameter
        values may not contain ``[ ] , =``.
        """
        if not isinstance(text, str):
            raise ConfigurationError(
                f"strategy must be a string or StrategySpec, got "
                f"{type(text).__name__}; valid names include "
                f"{', '.join(_LEGACY_ALIASES)}"
            )
        stripped = text.strip()
        key = stripped.lower()
        if key in _LEGACY_ALIASES:
            kind, params = _LEGACY_ALIASES[key]
            return cls(kind, params)
        malformed = f"malformed strategy spec {short_repr(text)}"
        if "[" not in stripped:
            if "]" in stripped:
                raise ConfigurationError(f"{malformed}: stray ']'")
            if not key:
                raise ConfigurationError("strategy name must be non-empty")
            return cls(key, ())
        head, _, rest = stripped.partition("[")
        if not rest.endswith("]") or "]" in rest[:-1] or "[" in rest:
            raise ConfigurationError(f"{malformed}: expected kind[key=value,...]")
        kind = head.strip().lower()
        if not kind:
            raise ConfigurationError(f"{malformed}: missing kind")
        body = rest[:-1].strip()
        params: list[tuple[str, object]] = []
        if body:
            for item in body.split(","):
                name, sep, value = item.partition("=")
                name, value = name.strip(), value.strip()
                if not sep or not name or not value:
                    raise ConfigurationError(
                        f"{malformed}: parameter {short_repr(item.strip())} "
                        "must look like key=value"
                    )
                params.append((name, value))
        return cls(kind, tuple(params))


def parse_strategy(value: "str | StrategySpec") -> StrategySpec:
    """Coerce a strategy given as a name, spec string or :class:`StrategySpec`."""
    if isinstance(value, StrategySpec):
        return value
    return StrategySpec.parse(value)


def canonical_strategy(value: "str | StrategySpec") -> str:
    """Canonical string form of a strategy (the cache-key/digest form).

    This is the single validator every layer routes strategy input through:
    :class:`~repro.simulation.config.SimulationConfig`, scenarios, the
    experiment harness and the CLI all share its error messages (including
    the did-you-mean suggestion on near-miss names).
    """
    return parse_strategy(value).canonical


@dataclass(frozen=True)
class Strategy:
    """A resolved (scheduler family, checkpoint policy) pair.

    ``name`` is the canonical spec string (for the paper's seven
    combinations, the bare legacy name) and is what results, cache keys and
    reports carry.  ``mtbf_bias`` scales the node MTBF handed to the
    scheduler — the Least-Waste tunable; 1.0 (the default) leaves behaviour
    bit-identical to the paper's heuristic.
    """

    name: str
    scheduler_cls: type[IOScheduler]
    policy: CheckpointPolicy
    mtbf_bias: float = 1.0

    def make_scheduler(
        self,
        engine: SimulationEngine,
        io: IOSubsystem,
        node_mtbf_s: float,
    ) -> IOScheduler:
        """Instantiate the scheduler for one simulation run."""
        return self.scheduler_cls(engine, io, node_mtbf_s * self.mtbf_bias)


# --------------------------------------------------------------- built-ins
def _family_validate(spec: StrategySpec) -> None:
    """Cross-parameter check shared by the built-in families."""
    if spec.get("period_s") is not None and spec.get("policy", "daly") != "fixed":
        raise ConfigurationError(
            f"strategy {spec.kind!r}: period_s only applies with policy=fixed"
        )


def _float_param(value: object) -> float:
    """Narrow an already-coerced spec parameter to ``float``.

    ``StrategySpec`` construction runs every parameter through
    :meth:`ParamSpec.coerce`, so a ``float``-typed parameter is numeric by
    the time a factory reads it — the assert records that invariant.
    """
    assert isinstance(value, (int, float)), value
    return float(value)


def _family_factory(scheduler_cls: type[IOScheduler]) -> Callable[..., Strategy]:
    """Factory for the built-in families: policy/period (+ Least-Waste bias)."""

    def build(spec: StrategySpec, *, fixed_period_s: float = HOUR) -> Strategy:
        # ``policy`` is already lower-cased and checked against its choices.
        policy: CheckpointPolicy = DalyPolicy()
        if spec.get("policy") == "fixed":
            period = spec.get("period_s")
            policy = FixedPolicy(_float_param(period) if period is not None else fixed_period_s)
        return Strategy(
            name=spec.canonical,
            scheduler_cls=scheduler_cls,
            policy=policy,
            mtbf_bias=_float_param(spec.get("mtbf_bias", 1.0)),
        )

    return build


_FAMILY_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec(
        "policy", str, default="daly", choices=("fixed", "daly"),
        help="checkpoint-period policy: per-class Young/Daly or a fixed period",
    ),
    ParamSpec(
        "period_s", float, default=None, positive=True,
        help="fixed checkpoint period in seconds (policy=fixed only; "
        "defaults to the run's fixed_period_s)",
    ),
)

_LEAST_WASTE_PARAMS: tuple[ParamSpec, ...] = _FAMILY_PARAMS + (
    ParamSpec(
        "mtbf_bias", float, default=1.0, positive=True,
        help="scales the node MTBF the waste scoring assumes "
        "(>1 biases toward fewer assumed failures)",
    ),
)

for _kind, _cls, _display, _params, _doc in (
    (
        "oblivious", ObliviousScheduler, "Oblivious", _FAMILY_PARAMS,
        "no coordination: transfers start immediately and share bandwidth",
    ),
    (
        "ordered", OrderedScheduler, "Ordered", _FAMILY_PARAMS,
        "single FCFS I/O token; jobs block (idle) while waiting",
    ),
    (
        "orderednb", OrderedNBScheduler, "Ordered-NB", _FAMILY_PARAMS,
        "FCFS token, but jobs keep computing while a checkpoint waits",
    ),
    (
        "least-waste", LeastWasteScheduler, "Least-Waste", _LEAST_WASTE_PARAMS,
        "cooperative token: serve the request minimizing expected waste",
    ),
):
    register_strategy(
        _kind,
        _family_factory(_cls),
        params=_params,
        description=_doc,
        display=_display,
        validate=_family_validate,
        replace_existing=True,  # legacy alias "least-waste" shares the name
    )
del _kind, _cls, _display, _params, _doc


def make_strategy(name: str | StrategySpec, *, fixed_period_s: float = HOUR) -> Strategy:
    """Build a :class:`Strategy` from a name, spec string or :class:`StrategySpec`.

    Parameters
    ----------
    name:
        A legacy strategy name (e.g. ``"orderednb-daly"``), a parameterized
        spec string (``"ordered[policy=fixed,period_s=1800]"``) or a
        :class:`StrategySpec`; case-insensitive.
    fixed_period_s:
        Period used by fixed-policy strategies whose spec carries no
        explicit ``period_s`` (default one hour).
    """
    spec = parse_strategy(name)
    strategy = kind_info(spec.kind).factory(spec, fixed_period_s=fixed_period_s)
    if not isinstance(strategy, Strategy):
        raise ConfigurationError(
            f"strategy factory for kind {spec.kind!r} returned "
            f"{type(strategy).__name__}, expected Strategy"
        )
    return strategy


def resolved_strategy_spec(
    strategy: str | StrategySpec, *, fixed_period_s: float = HOUR
) -> str:
    """Explicit spec string with the *effective* policy and period resolved.

    Unlike :func:`canonical_strategy` (which omits defaults so legacy cache
    keys survive), this spells everything out — ``"ordered-fixed"`` with a
    30-minute run period resolves to ``"ordered[policy=fixed,period_s=1800]"``
    — so exported tables distinguish cells that share a name but ran with
    different parameters.

    A strategy this process cannot build — a custom kind whose registering
    module is not imported here — resolves to its own spec string, so an
    export of a campaign that ran one degrades instead of failing.
    """
    try:
        spec = parse_strategy(strategy)
        built = make_strategy(spec, fixed_period_s=fixed_period_s)
    except ConfigurationError:
        return str(strategy)
    values = dict(spec.params)
    if isinstance(built.policy, FixedPolicy):
        values["policy"] = "fixed"
        values["period_s"] = built.policy.period_s
    elif isinstance(built.policy, DalyPolicy):
        values["policy"] = "daly"
        values.pop("period_s", None)
    info = kind_info(spec.kind)
    ordered = [param.name for param in info.params if param.name in values]
    ordered += [name for name in values if name not in ordered]
    body = ",".join(f"{name}={format_param_value(values[name])}" for name in ordered)
    return f"{spec.kind}[{body}]" if body else spec.kind
