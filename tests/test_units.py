"""Unit-conversion helpers."""

from __future__ import annotations

import pytest

from repro import units


def test_time_constants_are_consistent():
    assert units.MINUTE == 60.0
    assert units.HOUR == 60.0 * units.MINUTE
    assert units.DAY == 24.0 * units.HOUR
    assert units.YEAR == 365.0 * units.DAY


def test_data_constants_are_decimal():
    assert units.KB == 1e3
    assert units.MB == 1e6
    assert units.GB == 1e9
    assert units.TB == 1e12
    assert units.PB == 1e15


# Inverses the package does not ship, as oracles for its conversions.
def to_days(seconds: float) -> float:
    return seconds / units.DAY


def to_years(seconds: float) -> float:
    return seconds / units.YEAR


def to_tb(nbytes: float) -> float:
    return nbytes / units.TB


@pytest.mark.parametrize(
    ("forward", "backward", "value"),
    [
        (units.hours, units.to_hours, 3.5),
        (units.days, to_days, 12.25),
        (units.years, to_years, 0.75),
        (units.gigabytes, units.to_gb, 42.0),
        (units.terabytes, to_tb, 1.5),
    ],
)
def test_conversions_round_trip(forward, backward, value):
    assert backward(forward(value)) == pytest.approx(value)


def test_petabytes():
    assert units.petabytes(7.0) == pytest.approx(7e15)


def test_hours_and_days_compose():
    assert units.days(1.0) == pytest.approx(units.hours(24.0))
