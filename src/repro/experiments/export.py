"""Export experiment results to CSV or JSON.

The paper's figures are plots; this module serialises the reproduced series
so they can be re-plotted with any external tool.  Two exporters are
provided: one for :class:`~repro.experiments.runner.SweepResult` (Figures 1
and 2), one for :class:`~repro.experiments.figure3.Figure3Result`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: writing a campaign CSV loads no figure module
    from repro.experiments.figure3 import Figure3Result
    from repro.experiments.runner import SweepResult

__all__ = [
    "sweep_to_rows",
    "sweep_to_csv",
    "sweep_to_json",
    "figure3_to_rows",
    "figure3_to_csv",
    "write_text",
]


def sweep_to_rows(result: SweepResult) -> list[dict]:
    """One row per (parameter value, strategy) cell, plus the theory rows.

    Each row carries the full candlestick statistics of the cell so nothing
    is lost relative to the in-memory representation.
    """
    rows: list[dict] = []
    for index, value in enumerate(result.parameter_values):
        for strategy in result.strategies:
            summary = result.waste[strategy][index]
            row = {
                "parameter": result.parameter_name,
                "value": value,
                "strategy": strategy,
            }
            row.update(summary.as_dict())
            rows.append(row)
        rows.append(
            {
                "parameter": result.parameter_name,
                "value": value,
                "strategy": "theoretical-model",
                "mean": result.theory[index],
            }
        )
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def sweep_to_csv(result: SweepResult) -> str:
    """CSV rendering of :func:`sweep_to_rows`."""
    return _rows_to_csv(sweep_to_rows(result))


def sweep_to_json(result: SweepResult, *, indent: int = 2) -> str:
    """JSON rendering of :func:`sweep_to_rows` plus sweep metadata."""
    payload = {
        "parameter": result.parameter_name,
        "values": result.parameter_values,
        "strategies": result.strategies,
        "rows": sweep_to_rows(result),
    }
    return json.dumps(payload, indent=indent)


def figure3_to_rows(result: Figure3Result) -> list[dict]:
    """One row per (MTBF, strategy) cell of a Figure 3 study."""
    rows: list[dict] = []
    for index, mtbf in enumerate(result.node_mtbf_years):
        for strategy in result.strategies:
            rows.append(
                {
                    "node_mtbf_years": mtbf,
                    "strategy": strategy,
                    "min_bandwidth_tbs": result.min_bandwidth_tbs[strategy][index],
                    "target_efficiency": result.target_efficiency,
                }
            )
        rows.append(
            {
                "node_mtbf_years": mtbf,
                "strategy": "theoretical-model",
                "min_bandwidth_tbs": result.theory_tbs[index],
                "target_efficiency": result.target_efficiency,
            }
        )
    return rows


def figure3_to_csv(result: Figure3Result) -> str:
    """CSV rendering of :func:`figure3_to_rows`."""
    return _rows_to_csv(figure3_to_rows(result))


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` (creating parent directories) and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target
