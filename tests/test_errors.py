"""Exception hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    SHORT_REPR_LIMIT,
    AnalysisError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    SimulationError,
    short_repr,
)


@pytest.mark.parametrize(
    "exc_type",
    [ConfigurationError, SchedulingError, SimulationError, AnalysisError],
)
def test_all_errors_derive_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)
    with pytest.raises(ReproError):
        raise exc_type("boom")


def test_repro_error_is_an_exception():
    assert issubclass(ReproError, Exception)


def test_errors_are_distinct():
    assert not issubclass(ConfigurationError, SimulationError)
    assert not issubclass(SimulationError, ConfigurationError)


def test_short_repr_keeps_a_short_repr_and_cuts_a_long_one():
    assert short_repr(0.5) == "0.5"
    assert short_repr("x" * (SHORT_REPR_LIMIT - 2)) == repr("x" * (SHORT_REPR_LIMIT - 2))
    huge = 10**4299
    assert short_repr(huge) == "1" + "0" * (SHORT_REPR_LIMIT - 1) + "… (4300 characters)"
    assert short_repr("y" * 100) == "'" + "y" * (SHORT_REPR_LIMIT - 1) + "… (102 characters)"
