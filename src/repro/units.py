"""Unit constants and conversion helpers.

All quantities inside the library use SI base units: seconds for time,
bytes for data volumes, bytes/second for bandwidth, and plain node counts
for sizes.  The constants below are the conversion factors used at the API
boundary (workload definitions, experiment parameters, reports).

The storage-industry convention of the paper (GB = 1e9 bytes, TB = 1e12
bytes, PB = 1e15 bytes) is followed; powers of two are not used anywhere.
"""

from __future__ import annotations

import math

# --- time ------------------------------------------------------------------
SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 24.0 * HOUR
YEAR: float = 365.0 * DAY

# --- data ------------------------------------------------------------------
BYTE: float = 1.0
KB: float = 1e3
MB: float = 1e6
GB: float = 1e9
TB: float = 1e12
PB: float = 1e15


def is_finite(value: float) -> bool:
    """``math.isfinite``, reading an int too large for a float as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def hours(value: float) -> float:
    """Convert ``value`` hours to seconds."""
    return value * HOUR


def days(value: float) -> float:
    """Convert ``value`` days to seconds."""
    return value * DAY


def years(value: float) -> float:
    """Convert ``value`` years (365 days) to seconds."""
    return value * YEAR


def gigabytes(value: float) -> float:
    """Convert ``value`` gigabytes (1e9 bytes) to bytes."""
    return value * GB


def terabytes(value: float) -> float:
    """Convert ``value`` terabytes (1e12 bytes) to bytes."""
    return value * TB


def petabytes(value: float) -> float:
    """Convert ``value`` petabytes (1e15 bytes) to bytes."""
    return value * PB


def to_hours(seconds: float) -> float:
    """Convert seconds to hours."""
    return seconds / HOUR


def to_gb(nbytes: float) -> float:
    """Convert bytes to gigabytes (1e9 bytes)."""
    return nbytes / GB
