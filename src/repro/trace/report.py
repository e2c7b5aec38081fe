"""Rendering of waste decompositions.

``render_decomposition`` prints the human-readable per-cell breakdown
(aggregate components with their share of the waste, plus the top per-job
contributors); ``decomposition_to_csv`` exports the aggregate and every
per-job row with ``repr``-exact floats.  Both are pure functions of the
:class:`~repro.trace.decompose.WasteDecomposition`, so two drill-downs of
the same cell produce byte-identical text — the determinism the regression
suite pins.
"""

from __future__ import annotations

import csv
import io

from repro.simulation.results import CATEGORY_FIELDS, WasteBreakdown
from repro.trace.decompose import JobWaste, WasteDecomposition

__all__ = ["decomposition_to_csv", "render_decomposition"]

#: Display names of the waste components, in summation order.
_COMPONENT_LABELS: tuple[tuple[str, str], ...] = (
    ("io_delay", "I/O queue delay"),
    ("checkpoint", "checkpoint writes"),
    ("checkpoint_wait", "checkpoint wait"),
    ("recovery", "recovery reads"),
    ("lost_work", "lost work"),
)


def render_decomposition(
    decomposition: WasteDecomposition, *, top_jobs: int = 8, precision: int = 3
) -> str:
    """Plain-text per-cell waste breakdown."""
    d = decomposition
    r = d.result
    b = r.breakdown
    cell = f"{d.scenario} / {r.strategy}" if d.scenario else r.strategy
    waste = b.waste
    lines = [
        f"Cell {cell} · seed {d.seed} · digest {d.digest[:12]}…",
        f"waste ratio          : {r.waste_ratio!r}",
        f"efficiency           : {r.efficiency:.{precision}f}",
        f"useful node-hours    : {b.useful / 3600.0:.1f} "
        f"(compute {b.compute / 3600.0:.1f}, base I/O {b.base_io / 3600.0:.1f})",
        f"jobs                 : {r.jobs_completed} completed, {r.jobs_failed} failed "
        f"({r.failures_effective} effective failure(s), "
        f"{r.checkpoints_completed} checkpoint(s))",
        "waste components (node-hours, share of waste):",
    ]
    for field, label in _COMPONENT_LABELS:
        value = getattr(b, field)
        share = value / waste if waste > 0.0 else 0.0
        lines.append(f"  {label:<19}: {value / 3600.0:10.2f}  {share:7.1%}")
    ranked = sorted(d.jobs, key=lambda job: (-job.waste, job.index))
    shown = ranked[: max(0, top_jobs)]
    if shown:
        lines.append(f"top {len(shown)} job(s) by waste (node-hours):")
        width = max(len(job.name) for job in shown)
        for job in shown:
            lines.append(
                f"  {job.name:<{width}}  waste {job.waste / 3600.0:8.2f} = "
                f"delay {job.io_delay / 3600.0:.2f} + ckpt {job.checkpoint / 3600.0:.2f} "
                f"+ wait {job.checkpoint_wait / 3600.0:.2f} "
                f"+ recovery {job.recovery / 3600.0:.2f} + lost {job.lost_work / 3600.0:.2f}"
            )
        if len(ranked) > len(shown):
            lines.append(f"  … {len(ranked) - len(shown)} more job(s) in the CSV export")
    return "\n".join(lines)


def decomposition_to_csv(decomposition: WasteDecomposition) -> str:
    """CSV export: one aggregate ``total`` row plus one row per job.

    Floats use ``repr`` (shortest-exact), so the export round-trips the
    decomposition and the ``waste``/``waste_ratio`` columns can be checked
    bit-for-bit against the result cache (CI does exactly that).
    """
    d = decomposition
    columns = CATEGORY_FIELDS.values()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["scenario", "strategy", "seed", "scope", "job", *columns, "waste", "waste_ratio"]
    )

    def row(scope: str, job: str, source: WasteBreakdown | JobWaste, ratio: str) -> None:
        writer.writerow(
            [
                d.scenario,
                d.result.strategy,
                d.seed,
                scope,
                job,
                *[repr(getattr(source, field)) for field in columns],
                repr(source.waste),
                ratio,
            ]
        )

    row("total", "", d.result.breakdown, repr(d.result.waste_ratio))
    for job in d.jobs:
        row("job", job.name, job, "")
    return buffer.getvalue()
