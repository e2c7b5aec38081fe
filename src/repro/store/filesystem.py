"""The ``"filesystem"`` store: the historical directory-of-JSON layout.

:class:`FilesystemStore` *is* a :class:`~repro.exec.cache.ResultCache` —
inheritance, not delegation — so the on-disk layout, the atomic-write
discipline, the per-shard index journals and every byte it produces are
identical to what the cache has always written.  A directory populated by
any earlier release opens as a filesystem store unchanged, and a directory
written through this class is indistinguishable from one written by
``ResultCache`` directly (the golden pins and digest discipline of
``tests/test_golden_regression.py`` therefore apply verbatim).
"""

from __future__ import annotations

import os

from repro.exec.cache import ResultCache
from repro.store.base import ResultStore, register_store

__all__ = ["FilesystemStore"]


class FilesystemStore(ResultCache, ResultStore):
    """One directory of JSON entries (the default)."""

    kind = "filesystem"


def _make_filesystem_store(path: str | os.PathLike[str]) -> FilesystemStore:
    return FilesystemStore(path)


register_store("filesystem", _make_filesystem_store)
