"""I/O request kinds (repro.apps.phases)."""

from __future__ import annotations

from repro.apps.phases import IOKind


def test_io_kind_checkpoint_flag():
    assert IOKind.CHECKPOINT.is_checkpoint
    for kind in (IOKind.INPUT, IOKind.OUTPUT, IOKind.RECOVERY, IOKind.REGULAR):
        assert not kind.is_checkpoint


def test_enum_values_are_unique_strings():
    values = [kind.value for kind in IOKind]
    assert len(values) == len(set(values))
    assert all(isinstance(v, str) for v in values)
