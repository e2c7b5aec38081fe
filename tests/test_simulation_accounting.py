"""Windowed node-second accounting (repro.simulation.accounting)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.accounting import Accounting, Category
from repro.simulation.results import CATEGORY_FIELDS, WasteBreakdown


def test_window_properties():
    accounting = Accounting(100.0, 500.0)
    assert accounting.window == (100.0, 500.0)
    assert accounting.window_length == 400.0
    assert accounting.in_window(100.0)
    assert accounting.in_window(500.0)
    assert not accounting.in_window(99.9)
    with pytest.raises(SimulationError):
        Accounting(10.0, 5.0)


def test_interval_clipping():
    accounting = Accounting(100.0, 200.0)
    # Fully inside.
    accounting.record_interval(Category.COMPUTE, 2.0, 120.0, 150.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(60.0)
    # Straddling the start: only the in-window part counts.
    accounting.record_interval(Category.COMPUTE, 1.0, 50.0, 110.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(70.0)
    # Straddling the end.
    accounting.record_interval(Category.COMPUTE, 1.0, 190.0, 300.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(80.0)
    # Completely outside.
    accounting.record_interval(Category.COMPUTE, 5.0, 0.0, 90.0)
    accounting.record_interval(Category.COMPUTE, 5.0, 300.0, 400.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(80.0)


def test_interval_validation():
    accounting = Accounting(0.0, 100.0)
    with pytest.raises(SimulationError):
        accounting.record_interval(Category.COMPUTE, -1.0, 0.0, 10.0)
    with pytest.raises(SimulationError):
        accounting.record_interval(Category.COMPUTE, 1.0, 10.0, 5.0)


def test_amounts_only_counted_inside_window():
    accounting = Accounting(100.0, 200.0)
    accounting.record_interval(Category.COMPUTE, 1.0, 100.0, 200.0)
    accounting.move_amount(Category.COMPUTE, Category.LOST_WORK, 40.0, 150.0)
    accounting.move_amount(Category.COMPUTE, Category.LOST_WORK, 40.0, 250.0)
    assert accounting.total(Category.LOST_WORK) == pytest.approx(40.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(60.0)
    with pytest.raises(SimulationError):
        accounting.move_amount(Category.COMPUTE, Category.LOST_WORK, -1.0, 150.0)


def test_move_amount_reattributes_between_categories():
    accounting = Accounting(0.0, 100.0)
    accounting.record_interval(Category.COMPUTE, 1.0, 0.0, 50.0)
    accounting.move_amount(Category.COMPUTE, Category.LOST_WORK, 20.0, 50.0)
    assert accounting.total(Category.COMPUTE) == pytest.approx(30.0)
    assert accounting.total(Category.LOST_WORK) == pytest.approx(20.0)
    # A move triggered outside the window does nothing.
    accounting.move_amount(Category.COMPUTE, Category.LOST_WORK, 10.0, 500.0)
    assert accounting.total(Category.LOST_WORK) == pytest.approx(20.0)


def test_useful_waste_split_and_ratio():
    accounting = Accounting(0.0, 1000.0)
    accounting.record_interval(Category.COMPUTE, 1.0, 0.0, 600.0)
    accounting.record_interval(Category.BASE_IO, 1.0, 600.0, 700.0)
    accounting.record_interval(Category.CHECKPOINT, 1.0, 700.0, 800.0)
    accounting.record_interval(Category.RECOVERY, 1.0, 800.0, 850.0)
    accounting.record_interval(Category.IO_DELAY, 1.0, 850.0, 900.0)
    breakdown = WasteBreakdown.from_accounting(accounting)
    assert breakdown.useful == pytest.approx(700.0)
    assert breakdown.waste == pytest.approx(200.0)
    assert breakdown.waste_ratio == pytest.approx(200.0 / 900.0)


def test_waste_ratio_degenerate_cases():
    empty = Accounting(0.0, 10.0)
    assert WasteBreakdown.from_accounting(empty).waste_ratio == 0.0
    only_waste = Accounting(0.0, 10.0)
    only_waste.record_interval(Category.CHECKPOINT, 1.0, 0.0, 5.0)
    assert WasteBreakdown.from_accounting(only_waste).waste_ratio == 1.0


def test_allocation_tracking():
    accounting = Accounting(100.0, 200.0)
    accounting.record_allocation(4.0, 0.0, 300.0)
    assert accounting.allocated_node_seconds == pytest.approx(4.0 * 100.0)
    with pytest.raises(SimulationError):
        accounting.record_allocation(-1.0, 0.0, 10.0)


def test_category_fields_name_the_breakdown_field_of_every_category():
    """One table, in summation order: the two useful categories, then the waste ones."""
    accounting = Accounting(0.0, 100.0)
    for nodes, category in enumerate(Category, start=1):
        accounting.record_interval(category, float(nodes), 0.0, 1.0)
    breakdown = WasteBreakdown.from_accounting(accounting)
    assert list(CATEGORY_FIELDS) == list(Category)
    assert [getattr(breakdown, name) for name in CATEGORY_FIELDS.values()] == [
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
    ]
    assert breakdown.useful == 1.0 + 2.0
    assert breakdown.waste == 3.0 + 4.0 + 5.0 + 6.0 + 7.0


def test_totals_returns_a_copy():
    accounting = Accounting(0.0, 10.0)
    totals = accounting.totals()
    totals[Category.COMPUTE] = 1e9
    assert accounting.total(Category.COMPUTE) == 0.0
