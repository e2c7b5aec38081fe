"""Campaigns: named matrices of scenarios expanded from axes.

A :class:`Campaign` pairs a base :class:`~repro.scenarios.spec.Scenario`
with zero or more :class:`Axis` objects.  Each axis contributes a set of
labelled override points (e.g. ``mtbf=short -> {"node_mtbf_years": 2}``);
the campaign is the cartesian product of the axes, each combination applied
to the base scenario through :meth:`Scenario.apply`.

Expansion is fully deterministic: scenarios are produced in row-major axis
order with names like ``"io=weak,mtbf=short"``, so re-running a campaign
(or growing one axis) maps the unchanged cells onto the same configurations
— and therefore onto the same result-cache keys.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.errors import ConfigurationError, short_repr
from repro.scenarios.spec import Scenario, check_name

__all__ = ["Axis", "AxisPoint", "Campaign"]


@dataclass(frozen=True)
class AxisPoint:
    """One labelled point of an axis: a name plus scenario overrides."""

    label: str
    overrides: Mapping[str, object]

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("axis point requires a non-empty label")
        check_name("axis point label", self.label)
        object.__setattr__(self, "overrides", dict(self.overrides))


@dataclass(frozen=True)
class Axis:
    """One dimension of a campaign matrix.

    Attributes
    ----------
    name:
        Axis name; combined with point labels in scenario names
        (``"<name>=<label>"``).
    points:
        The labelled override points of the axis, in sweep order.
    """

    name: str
    points: tuple[AxisPoint, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("axis requires a non-empty name")
        check_name("axis name", self.name)
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ConfigurationError(f"axis {self.name!r} has no points")
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"axis {self.name!r} has duplicate point labels")

    @classmethod
    def from_values(
        cls,
        name: str,
        key: str,
        values: Iterable[object],
        *,
        labels: Sequence[str] | None = None,
    ) -> "Axis":
        """Build an axis sweeping a single override key over ``values``.

        ``labels`` defaults to ``str(value)`` (floats use ``:g`` so
        ``40.0`` reads ``40``).
        """
        values = list(values)
        if labels is None:
            labels = [f"{v:g}" if isinstance(v, float) else str(v) for v in values]
        if len(labels) != len(values):
            raise ConfigurationError(
                f"axis {name!r}: {len(labels)} labels for {len(values)} values"
            )
        return cls(
            name=name,
            points=tuple(
                AxisPoint(label=label, overrides={key: value})
                for label, value in zip(labels, values)
            ),
        )


@dataclass(frozen=True)
class Campaign:
    """A named matrix of scenarios: base scenario x axes.

    ``scenarios()`` expands the matrix; with no axes the campaign is the
    single base scenario.  Axis overrides are merged per combination (later
    axes win on conflicting keys) and applied in one :meth:`Scenario.apply`
    call, so a workload-factory override always sees the platform with every
    platform-level override of the combination already applied, regardless
    of axis order.
    """

    name: str
    base: Scenario
    axes: tuple[Axis, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("Campaign requires a non-empty name")
        check_name("campaign name", self.name)
        object.__setattr__(self, "axes", tuple(self.axes))
        axis_names = [axis.name for axis in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ConfigurationError(f"campaign {self.name!r} has duplicate axis names")

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of points per axis (empty for a single-scenario campaign)."""
        return tuple(len(axis.points) for axis in self.axes)

    def size(self) -> int:
        """Total number of scenarios in the matrix."""
        count = 1
        for extent in self.shape:
            count *= extent
        return count

    def scenarios(self) -> list[Scenario]:
        """Expand the matrix into concrete scenarios, row-major in axis order."""
        if not self.axes:
            return [self.base]
        expanded: list[Scenario] = []
        for combo in itertools.product(*(axis.points for axis in self.axes)):
            merged: dict[str, object] = {}
            for point in combo:
                merged.update(point.overrides)
            # A point-level "name" override renames the cell; otherwise the
            # name is composed from the axis labels.
            label = merged.pop(
                "name",
                ",".join(f"{axis.name}={point.label}" for axis, point in zip(self.axes, combo)),
            )
            expanded.append(self.base.apply(str(label), **merged))
        return expanded

    # ------------------------------------------------------------ user files
    @classmethod
    def from_mapping(cls, data: Mapping[str, object], *, source: str = "<mapping>") -> "Campaign":
        """Build a campaign from a parsed TOML/JSON document.

        Schema (TOML shown; JSON is the same shape)::

            name = "my-sweep"
            base = "smoke"              # preset whose base scenario to start from

            [overrides]                 # optional Scenario.apply overrides
            num_runs = 2
            horizon_days = 0.5
            strategies = ["ordered-daly", "least-waste"]

            [[axes]]                    # compact single-key axis
            name = "io"
            key = "bandwidth_gbs"
            values = [1.0, 4.0]
            # labels = ["weak", "strong"]   # optional, defaults to the values

            [[axes]]                    # general labelled-points axis
            name = "mtbf"
            [[axes.points]]
            label = "short"
            [axes.points.overrides]
            node_mtbf_years = 0.0438

        ``base`` names a campaign preset (its axes are dropped, only its base
        scenario is inherited), which is how a plain data file gets a concrete
        platform and workload; ``overrides`` accepts every
        :meth:`Scenario.apply` key, including the platform shorthands.
        Workload-rebuild callables are not expressible in data files — use
        the Python API for axes that resize machine memory.
        """
        known = {"name", "base", "overrides", "axes"}
        unknown = sorted(set(map(str, data)) - known)
        if unknown:
            raise ConfigurationError(
                f"{source}: unknown campaign key(s) {', '.join(map(short_repr, unknown))}; "
                f"expected one of {', '.join(sorted(known))}"
            )
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"{source}: campaign file needs a non-empty string 'name'")
        preset = data.get("base")
        if not preset or not isinstance(preset, str):
            raise ConfigurationError(
                f"{source}: campaign file needs 'base': the name of a campaign "
                "preset whose base scenario provides the platform and workload"
            )
        from repro.scenarios.presets import make_campaign  # lazy: presets imports us

        base = make_campaign(preset).base
        overrides = data.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise ConfigurationError(f"{source}: 'overrides' must be a table/object")
        if overrides:
            base = base.apply(**{str(key): value for key, value in overrides.items()})

        axes: list[Axis] = []
        axis_entries = data.get("axes", [])
        if not isinstance(axis_entries, Sequence) or isinstance(axis_entries, (str, bytes)):
            raise ConfigurationError(f"{source}: 'axes' must be an array of tables/objects")
        for position, entry in enumerate(axis_entries):
            axes.append(cls._axis_from_mapping(entry, source=f"{source}: axes[{position}]"))
        return cls(name=name, base=base, axes=tuple(axes))

    @staticmethod
    def _axis_from_mapping(entry: object, *, source: str) -> Axis:
        if not isinstance(entry, Mapping):
            raise ConfigurationError(f"{source}: each axis must be a table/object")
        axis_name = entry.get("name")
        if not axis_name or not isinstance(axis_name, str):
            raise ConfigurationError(f"{source}: axis needs a non-empty string 'name'")
        check_name(f"{source}: axis name", axis_name)
        if "key" in entry:
            values = entry.get("values")
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)) or not values:
                raise ConfigurationError(f"{source}: axis {axis_name!r} needs a non-empty 'values' array")
            labels = entry.get("labels")
            if labels is not None and (
                not isinstance(labels, Sequence) or isinstance(labels, (str, bytes))
            ):
                raise ConfigurationError(f"{source}: axis {axis_name!r} 'labels' must be an array")
            return Axis.from_values(
                axis_name,
                str(entry["key"]),
                list(values),
                labels=[str(label) for label in labels] if labels is not None else None,
            )
        points = entry.get("points")
        if not isinstance(points, Sequence) or isinstance(points, (str, bytes)) or not points:
            raise ConfigurationError(
                f"{source}: axis {axis_name!r} needs either 'key'+'values' or a "
                "non-empty 'points' array"
            )
        built: list[AxisPoint] = []
        for index, point in enumerate(points):
            if not isinstance(point, Mapping) or not point.get("label"):
                raise ConfigurationError(
                    f"{source}: axis {axis_name!r} point [{index}] needs a 'label'"
                )
            label = str(point["label"])
            check_name(f"{source}: axis {axis_name!r} point label", label)
            point_overrides = point.get("overrides", {})
            if not isinstance(point_overrides, Mapping):
                raise ConfigurationError(
                    f"{source}: axis {axis_name!r} point {label!r} "
                    "'overrides' must be a table/object"
                )
            built.append(AxisPoint(label=label, overrides=dict(point_overrides)))
        return Axis(name=axis_name, points=tuple(built))

    @classmethod
    def from_file(cls, path: str | os.PathLike[str]) -> "Campaign":
        """Load a user-defined campaign matrix from a TOML or JSON file.

        The format is chosen by suffix: ``.json`` parses as JSON, everything
        else as TOML.  See :meth:`from_mapping` for the schema.
        """
        path = Path(path)
        try:
            if path.suffix.lower() == ".json":
                data = json.loads(path.read_text(encoding="utf-8"))
            else:
                try:
                    import tomllib
                except ModuleNotFoundError as exc:  # pragma: no cover - py3.10
                    raise ConfigurationError(
                        f"TOML campaign files need Python 3.11+ (tomllib); "
                        f"rewrite {path.name} as JSON to use it here"
                    ) from exc
                with path.open("rb") as handle:
                    data = tomllib.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read campaign file {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and tomllib.TOMLDecodeError subclass ValueError;
            # RecursionError is a document nested deeper than the parser recurses.
            raise ConfigurationError(f"cannot parse campaign file {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"campaign file {path} must contain a table/object at top level")
        return cls.from_mapping(data, source=str(path))

    def describe(self) -> str:
        """Multi-line human-readable summary of the campaign."""
        lines = [
            f"Campaign {self.name}: {self.size()} scenario(s), "
            f"{len(self.base.strategies)} strategies, {self.base.num_runs} runs each",
            f"  base: {self.base.describe()}",
        ]
        for axis in self.axes:
            points = ", ".join(point.label for point in axis.points)
            lines.append(f"  axis {axis.name}: {points}")
        return "\n".join(lines)
