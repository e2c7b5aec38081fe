"""Strategy registry: parameterized strategy kinds plus the paper's seven names.

A *strategy* pairs an I/O scheduler family with a checkpoint-period policy.
Strategies are selected by :class:`~repro.iosched.spec.StrategySpec` — a
*kind* plus typed parameters with a canonical string form such as
``"ordered[policy=fixed,period_s=1800]"`` — and the seven named strategies
of the paper remain valid legacy aliases:

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

:func:`make_strategy` builds a :class:`Strategy` from a name or spec;
``Strategy.make_scheduler`` instantiates the scheduler against a concrete
engine/I-O subsystem, and ``Strategy.policy`` provides the period policy.
Third-party strategies plug in through :func:`register_strategy` (re-exported
from :mod:`repro.iosched.spec`); the contract mirrors the execution-backend
registry and is recorded in ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.checkpoint_policy import CheckpointPolicy, DalyPolicy, FixedPolicy, make_policy
from repro.errors import ConfigurationError
from repro.iosched.base import IOScheduler
from repro.iosched.least_waste import LeastWasteScheduler
from repro.iosched.oblivious import ObliviousScheduler
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.ordered_nb import OrderedNBScheduler
from repro.iosched.spec import (
    ParamSpec,
    StrategySpec,
    canonical_strategy,
    format_param_value,
    kind_info,
    legacy_strategy_names,
    parse_strategy,
    register_strategy,
    strategy_kinds,
)
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.units import HOUR

__all__ = [
    "ParamSpec",
    "Strategy",
    "StrategySpec",
    "STRATEGIES",
    "canonical_strategy",
    "kind_info",
    "legacy_strategy_names",
    "make_strategy",
    "parse_strategy",
    "register_strategy",
    "resolved_strategy_spec",
    "strategy_kinds",
    "strategy_names",
]


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
    label: str
    mtbf_bias: float = 1.0

    def make_scheduler(
        self,
        engine: SimulationEngine,
        io: IOSubsystem,
        node_mtbf_s: float,
    ) -> IOScheduler:
        """Instantiate the scheduler for one simulation run."""
        return self.scheduler_cls(engine, io, node_mtbf_s * self.mtbf_bias)

    @property
    def nonblocking_checkpoints(self) -> bool:
        """True when the strategy lets jobs compute while waiting to checkpoint."""
        return self.scheduler_cls.nonblocking_checkpoints


#: Names of the seven strategies evaluated in the paper, in the order they
#: appear in the figures.  Parameterized specs and registered kinds are
#: accepted everywhere these names are; see :mod:`repro.iosched.spec`.
STRATEGIES: tuple[str, ...] = legacy_strategy_names()


def strategy_names() -> tuple[str, ...]:
    """The seven legacy strategy names, in the paper's plotting order."""
    return STRATEGIES


# --------------------------------------------------------------- built-ins
def _family_validate(spec: StrategySpec) -> None:
    """Cross-parameter check shared by the built-in families."""
    if spec.get("period_s") is not None and spec.get("policy", "daly") != "fixed":
        raise ConfigurationError(
            f"strategy {spec.kind!r}: period_s only applies with policy=fixed"
        )


def _family_label(spec: StrategySpec, display: str) -> str:
    """Human-readable label derived from the spec (legacy labels preserved)."""
    policy = spec.get("policy", "daly")
    extras = [(key, value) for key, value in spec.params if key != "policy"]
    if spec.kind == "least-waste" and policy == "daly":
        head = display
    else:
        head = f"{display}-{str(policy).capitalize()}"
    if extras:
        body = ",".join(f"{key}={format_param_value(value)}" for key, value in extras)
        head += f"[{body}]"
    return head


def _float_param(value: object) -> float:
    """Narrow an already-coerced spec parameter to ``float``.

    ``StrategySpec`` construction runs every parameter through
    :meth:`ParamSpec.coerce`, so a ``float``-typed parameter is numeric by
    the time a factory reads it — the assert records that invariant.
    """
    assert isinstance(value, (int, float)), value
    return float(value)


def _family_factory(scheduler_cls: type[IOScheduler], display: str):
    """Factory for the built-in families: policy/period (+ Least-Waste bias)."""

    def build(spec: StrategySpec, *, fixed_period_s: float = HOUR) -> Strategy:
        period = spec.get("period_s")
        policy = make_policy(
            str(spec.get("policy", "daly")),
            fixed_period_s=_float_param(period) if period is not None else fixed_period_s,
        )
        return Strategy(
            name=spec.canonical,
            scheduler_cls=scheduler_cls,
            policy=policy,
            label=_family_label(spec, display),
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
        _family_factory(_cls, _display),
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

    Unlike :func:`~repro.iosched.spec.canonical_strategy` (which omits
    defaults so legacy cache keys survive), this spells everything out —
    ``"ordered-fixed"`` with a 30-minute run period resolves to
    ``"ordered[policy=fixed,period_s=1800]"`` — so exported tables
    distinguish cells that share a name but ran with different parameters.
    """
    spec = parse_strategy(strategy)
    built = make_strategy(spec, fixed_period_s=fixed_period_s)
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
