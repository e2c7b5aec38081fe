"""Re-run one campaign cell with trace capture.

:func:`drill_down_cell` is the core of the per-cell drill-down: given the
cell's configuration and seed it re-runs the single simulation with
``collect_trace=True`` and decomposes its accounting into a
:class:`~repro.trace.decompose.WasteDecomposition`, which also records
whether the cell's value was already stored before the drill (the
provenance the CLI's "matches the cached cell value" claim rests on).

The cell is addressed by its *existing* cache key: the digest excludes both
``seed`` and ``collect_trace``, so a drill-down lands on exactly the entry
the campaign wrote — and because the simulator is a pure function of that
key, the decomposition's waste ratio is bit-identical to the cached scalar.
A drill-down of an uncached cell also stores the cell's value, so drilling
before running a campaign is never wasted work.  The decomposition itself
is never stored: every drill re-simulates its one cell.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import AnalysisError
from repro.exec.digest import config_digest
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.store.base import ResultStore
from repro.trace.decompose import WasteDecomposition

__all__ = ["drill_down_cell"]


def drill_down_cell(
    config: SimulationConfig,
    seed: int,
    *,
    cache: ResultStore | None = None,
    scenario: str = "",
) -> WasteDecomposition:
    """Waste decomposition of the cell ``(config digest, strategy, seed)``.

    Parameters
    ----------
    config:
        The cell's configuration (any seed it carries is replaced).
    seed:
        The concrete derived seed of the repetition to decompose.
    cache:
        Optional result cache.  Its value for the cell before the drill
        becomes the decomposition's ``recorded_value``, and a missing value
        is written back.  A value the fresh simulation cannot reproduce
        raises :class:`~repro.errors.AnalysisError` — the cache predates a
        simulator change and must be pruned.
    scenario:
        Display label recorded in the decomposition.
    """
    digest = config_digest(config)
    strategy = config.strategy
    seed = int(seed)
    recorded = cache.probe(digest, strategy, seed) if cache is not None else None
    sim = Simulation(replace(config, seed=seed, collect_trace=True))
    result = sim.run()
    if cache is not None:
        if recorded is None:
            # Drilling an unseen cell warms the scalar cache too: the next
            # campaign run serves this repetition as a hit.
            cache.put(digest, strategy, seed, result.waste_ratio)
        elif recorded != result.waste_ratio:
            # The entry predates a simulator change that was not digest-
            # bumped: the decomposition cannot sum to the recorded value,
            # and silently repairing the entry would let stale and fresh
            # values coexist in one campaign table.  Fail loudly instead.
            raise AnalysisError(
                f"cell ({digest[:12]}…, {strategy}, {seed}): re-simulated "
                f"waste ratio {result.waste_ratio!r} contradicts the cached "
                f"value {recorded!r}; the cache predates a simulator change "
                "— prune it with `coopckpt cache gc` (and bump DIGEST_VERSION "
                "with intentional behaviour changes)"
            )
    return WasteDecomposition.from_simulation(
        sim, result, digest=digest, scenario=scenario, recorded_value=recorded
    )
