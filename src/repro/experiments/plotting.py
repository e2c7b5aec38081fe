"""Plain-text (ASCII) charts for terminal-friendly figure rendering.

The library has no plotting dependency; this module renders the reproduced
series as simple ASCII charts so the qualitative shape of each figure can be
inspected straight from the CLI or a benchmark log.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import AnalysisError
from repro.experiments.report import SweepResult

__all__ = ["ascii_chart", "sweep_chart"]

_MARKERS = "ox+*#@%&sd"


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    *,
    x_values: Sequence[float],
    width: int = 72,
    height: int = 18,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render one or more named series as an ASCII scatter/line chart.

    Parameters
    ----------
    series:
        Mapping from series name to y-values (all the same length as
        ``x_values``).
    x_values:
        Common x-axis values.
    width / height:
        Plot area size in characters.
    y_label / x_label:
        Axis captions printed around the chart.
    """
    if not series:
        raise AnalysisError("ascii_chart requires at least one series")
    for name, values in series.items():
        if len(values) != len(x_values):
            raise AnalysisError(f"series {name!r} length does not match x_values")
    if not x_values:
        raise AnalysisError("x_values must not be empty")

    all_y = [y for values in series.values() for y in values]
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(x_values), max(x_values)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        column = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
        row = int(round((y - y_min) / (y_max - y_min) * (height - 1)))
        grid[height - 1 - row][column] = marker

    legend_lines: list[str] = []
    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend_lines.append(f"  {marker} {name}")
        for x, y in zip(x_values, values):
            place(float(x), float(y), marker)

    lines: list[str] = []
    if y_label:
        lines.append(y_label)
    top = f"{y_max:10.3g} +" + "-" * width + "+"
    bottom = f"{y_min:10.3g} +" + "-" * width + "+"
    lines.append(top)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(bottom)
    lines.append(" " * 12 + f"{x_min:<12.6g}" + " " * max(0, width - 24) + f"{x_max:>12.6g}")
    if x_label:
        lines.append(" " * 12 + x_label)
    lines.append("legend:")
    lines.extend(legend_lines)
    return "\n".join(lines)


def sweep_chart(result: SweepResult, *, width: int = 72, height: int = 18) -> str:
    """ASCII chart of a sweep's mean waste ratios (plus the theoretical bound)."""
    series: dict[str, Sequence[float]] = {
        strategy: result.series(strategy) for strategy in result.strategies
    }
    series["theoretical-model"] = list(result.theory)
    return ascii_chart(
        series,
        x_values=result.parameter_values,
        width=width,
        height=height,
        y_label="waste ratio",
        x_label=result.parameter_name,
    )
