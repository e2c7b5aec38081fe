"""Lossless store-to-store migration (``coopckpt cache import/export``).

:func:`copy_store` moves every entry between two result stores as
:class:`~repro.store.base.RawRecord` verbatim text — no parsing, no
re-encoding, no version re-stamping.  Because both built-in backends
store (or reconstruct) exactly those bytes, migrating a cache in either
direction — filesystem → SQLite → filesystem, or the reverse — reproduces
every record byte-for-byte, so no simulated node-second is ever lost or
altered by a storage move.  Copying is idempotent: records are keyed by
``(digest, strategy, seed)`` and re-copying overwrites with identical
bytes.
"""

from __future__ import annotations

from repro.store.base import ResultStore

__all__ = ["copy_store"]


def copy_store(src: ResultStore, dst: ResultStore) -> int:
    """Copy every raw record of ``src`` into ``dst``; returns how many.

    The source is never modified; the destination may be non-empty (records
    with colliding keys are overwritten, which for deterministic caches
    means rewritten with the same bytes).
    """
    entries = 0
    for record in src.iter_raw_entries():
        dst.put_raw_entry(record.digest, record.strategy, record.seed, record.body)
        entries += 1
    return entries
