"""Export experiment results to CSV or JSON.

The paper's figures are plots; this module serialises the reproduced series
so they can be re-plotted with any external tool.  Two exporters are
provided: one for the :class:`~repro.scenarios.runner.CampaignResult` of a
Figure 1 or 2 sweep, one for :class:`~repro.experiments.figure3.Figure3Result`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: writing a campaign CSV loads no figure module
    from collections.abc import Sequence

    from repro.experiments.figure3 import Figure3Result
    from repro.scenarios.runner import CampaignResult

__all__ = [
    "sweep_to_rows",
    "sweep_to_csv",
    "sweep_to_json",
    "figure3_to_rows",
    "figure3_to_csv",
    "write_text",
]


def sweep_to_rows(result: CampaignResult, parameter: str, values: Sequence[float]) -> list[dict]:
    """One row per (parameter value, strategy) cell, plus the theory rows.

    ``values`` are the axis values, one per outcome.  Each row carries the
    full candlestick statistics of its cell.
    """
    from repro.experiments.report import point_bound

    rows: list[dict] = []
    for value, outcome in zip(values, result.outcomes, strict=True):
        for strategy in result.strategies:
            row = {"parameter": parameter, "value": value, "strategy": strategy}
            row.update(outcome.summaries[strategy].as_dict())
            rows.append(row)
        rows.append(
            {
                "parameter": parameter,
                "value": value,
                "strategy": "theoretical-model",
                "mean": point_bound(outcome),
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


def sweep_to_csv(result: CampaignResult, parameter: str, values: Sequence[float]) -> str:
    """CSV rendering of :func:`sweep_to_rows`."""
    return _rows_to_csv(sweep_to_rows(result, parameter, values))


def sweep_to_json(
    result: CampaignResult, parameter: str, values: Sequence[float], *, indent: int = 2
) -> str:
    """JSON rendering of :func:`sweep_to_rows` plus sweep metadata."""
    payload = {
        "parameter": parameter,
        "values": list(values),
        "strategies": list(result.strategies),
        "rows": sweep_to_rows(result, parameter, values),
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
