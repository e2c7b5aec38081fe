"""Per-cell trace drill-down: explain *where* a campaign cell's waste goes.

The campaign layer reduces every ``(scenario, strategy, seed)`` cell to one
scalar waste ratio.  This package re-opens a cell: it re-runs the single
simulation behind the scalar with event tracing enabled and decomposes the
waste into its sources — checkpoint writes, checkpoint-token waits,
recovery reads, lost work and I/O-queue delay — in aggregate and per job.
The decomposition holds the run's own ``SimulationResult``, whose waste
ratio is repr-exactly the cell's recorded value.

Entry points: :func:`drill_down_cell` (configuration + seed),
:func:`repro.scenarios.runner.drill_down` (campaign-level addressing) and
``coopckpt trace --campaign ...`` on the command line.
"""

from repro.trace.decompose import JobWaste, WasteDecomposition
from repro.trace.drilldown import drill_down_cell
from repro.trace.report import decomposition_to_csv, render_decomposition

__all__ = [
    "JobWaste",
    "WasteDecomposition",
    "decomposition_to_csv",
    "drill_down_cell",
    "render_decomposition",
]
