"""I/O scheduling strategies (paper §3).

Four strategies decide when the file system serves each I/O request:

* :class:`~repro.iosched.oblivious.ObliviousScheduler` — no coordination;
  every request starts immediately and concurrent transfers share the
  bandwidth (linear interference).  This is the status quo.
* :class:`~repro.iosched.ordered.OrderedScheduler` — a single I/O token
  granted First-Come-First-Served; jobs block (idle) while they wait.
* :class:`~repro.iosched.ordered_nb.OrderedNBScheduler` — same FCFS token,
  but jobs keep computing while they wait for a *checkpoint* token.
* :class:`~repro.iosched.least_waste.LeastWasteScheduler` — the paper's
  cooperative heuristic: the token goes to the request that minimizes the
  expected waste inflicted on all other waiting requests (Eq. (1)/(2)).

All four keep their requests in the one ledger of
:class:`~repro.iosched.base.IOScheduler`; a strategy sets its two flags
(``shares_bandwidth``, ``nonblocking_checkpoints``) and, for Least-Waste
only, the rule that picks the next waiting request.

Strategies are selected by *spec* — a kind plus typed parameters with a
canonical string form such as ``"ordered[policy=fixed,period_s=1800]"``
(see :mod:`repro.iosched.spec`); the paper's seven names (each family in a
``fixed`` and a ``daly`` period variant, Least-Waste with Daly periods)
remain valid aliases.  Strategy instances are created through
:mod:`repro.iosched.registry`, and third-party strategies plug in with
:func:`register_strategy`.
"""

from repro.iosched.base import IORequest, IOScheduler
from repro.iosched.oblivious import ObliviousScheduler
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.ordered_nb import OrderedNBScheduler
from repro.iosched.least_waste import LeastWasteScheduler
from repro.iosched.registry import (
    STRATEGIES,
    ParamSpec,
    Strategy,
    StrategySpec,
    canonical_strategy,
    make_strategy,
    parse_strategy,
    register_strategy,
    resolved_strategy_spec,
    strategy_kinds,
    strategy_names,
)

__all__ = [
    "IORequest",
    "IOScheduler",
    "ObliviousScheduler",
    "OrderedScheduler",
    "OrderedNBScheduler",
    "LeastWasteScheduler",
    "ParamSpec",
    "Strategy",
    "StrategySpec",
    "STRATEGIES",
    "canonical_strategy",
    "make_strategy",
    "parse_strategy",
    "register_strategy",
    "resolved_strategy_spec",
    "strategy_kinds",
    "strategy_names",
]
