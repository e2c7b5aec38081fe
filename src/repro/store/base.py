"""The pluggable result-store contract and its open registry.

A *result store* holds the warm cache of simulated node-seconds the whole
system is built around: per-seed scalar values keyed by ``(config digest,
strategy, seed)``, and nothing else.  Historically that cache was
one concrete class (:class:`repro.exec.cache.ResultCache`, a directory of
JSON files); this module promotes the *interface* so the storage engine is
selectable the same way execution backends and strategies are — by name,
through an open registry:

* ``"filesystem"`` — :class:`repro.store.filesystem.FilesystemStore`, the
  historical directory layout, byte-for-byte unchanged.
* ``"sqlite"`` — :class:`repro.store.sqlite.SqliteStore`, one WAL-mode
  database file holding the entries in one indexed table.

**Store contract** (recorded in ROADMAP.md): a store never changes *what*
is cached, only *where*.  Values round-trip repr-exactly (a cache hit is
bit-identical to the simulation it replaced), corrupt or foreign records
read as misses (never errors), concurrent writers — threads, processes,
spool workers — are safe because the value for a given key is
deterministic, and :func:`repro.store.migrate.copy_store` moves raw records
between any two backends losslessly in either direction.  New backends
plug in through :func:`register_store`.

Every store duck-types the :class:`~repro.exec.cache.ResultCache` surface
(``get``/``probe``/``put``, ``stats``/``gc``, hit/miss counters), so
:class:`~repro.exec.runner.ParallelRunner`,
:class:`~repro.distributed.worker.SpoolWorker` and the trace drill-down all
work against any backend unchanged.  A drill-down keeps nothing but the
cell's value: it re-simulates the cell to decompose it.
"""

from __future__ import annotations

import difflib
import os
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.errors import ConfigurationError
from repro.exec.cache import CacheStats, GcReport, RawRecord

__all__ = [
    "DEFAULT_STORE",
    "ResultStore",
    "open_store",
    "register_store",
    "store_kinds",
]

#: The registry default: the historical on-disk layout.
DEFAULT_STORE = "filesystem"


class ResultStore:
    """Base class of result-store backends.

    Subclasses implement the abstract methods below and set :attr:`kind`;
    they must also expose ``root`` (the store's path) and the cumulative
    ``hits`` / ``misses`` / ``writes`` counters the runner reports from.
    Semantics mirror :class:`~repro.exec.cache.ResultCache` exactly — in
    particular, malformed or non-finite records are *misses*, never errors.
    """

    #: Registry name of the backend (set on subclasses).
    kind = "abstract"

    root: Path
    hits: int
    misses: int
    writes: int

    # ------------------------------------------------------------ values
    def get(self, digest: str, strategy: str, seed: int) -> float | None:
        """Cached value for one key, or ``None`` on a miss (counters touched)."""
        raise NotImplementedError

    def probe(self, digest: str, strategy: str, seed: int) -> float | None:
        """Like :meth:`get`, but counter-neutral (availability polls)."""
        hits, misses = self.hits, self.misses
        value = self.get(digest, strategy, seed)
        self.hits, self.misses = hits, misses
        return value

    def put(self, digest: str, strategy: str, seed: int, value: float) -> None:
        """Store one value atomically (safe under concurrent writers)."""
        raise NotImplementedError

    # ------------------------------------------------------------ raw access
    def iter_raw_entries(self) -> Iterator[RawRecord]:
        """Every entry as verbatim text (the lossless migration surface)."""
        raise NotImplementedError

    def put_raw_entry(self, digest: str, strategy: str, seed: int, body: str) -> None:
        """Store one entry's verbatim text, unchanged."""
        raise NotImplementedError

    # ------------------------------------------------------------ maintenance
    def stats(self) -> CacheStats:
        """Aggregate entry count, bytes and digest versions."""
        raise NotImplementedError

    def gc(
        self,
        *,
        older_than_s: float | None = None,
        digest_version: str | None = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Prune entries by age and/or digest version (see ``ResultCache.gc``)."""
        raise NotImplementedError

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release store resources (idempotent)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        """Number of entries currently stored."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"{self.kind} store at {self.root}"


#: Registry of store backends: kind -> factory(path) -> store.
_STORE_FACTORIES: dict[str, Callable[[str | os.PathLike[str]], ResultStore]] = {}


def store_kinds() -> tuple[str, ...]:
    """Names of every currently registered store backend."""
    return tuple(_STORE_FACTORIES)


def register_store(
    kind: str,
    factory: Callable[[str | os.PathLike[str]], ResultStore],
    *,
    replace_existing: bool = False,
) -> None:
    """Register a result-store backend under ``kind``.

    ``factory`` receives the store path (a directory, a database file —
    whatever the backend keys on) and returns a :class:`ResultStore`.
    Registering an existing kind requires ``replace_existing=True`` so
    typos don't silently shadow built-ins.
    """
    if not kind:
        raise ConfigurationError("store kind must be non-empty")
    if kind in _STORE_FACTORIES and not replace_existing:
        raise ConfigurationError(
            f"store {kind!r} is already registered; pass replace_existing=True to override"
        )
    _STORE_FACTORIES[kind] = factory


def open_store(
    kind: str,
    path: str | os.PathLike[str],
    *,
    must_exist: bool = False,
) -> ResultStore:
    """Open (or create) the store of ``kind`` at ``path``.

    Unknown kinds fail with a did-you-mean suggestion; ``must_exist=True``
    refuses to create a missing store — the inspection commands use it so a
    typo'd path reports the mistake instead of a healthy empty store.
    """
    factory = _STORE_FACTORIES.get(kind)
    if factory is None:
        known = ", ".join(sorted(_STORE_FACTORIES))
        hint = ""
        close = difflib.get_close_matches(kind, _STORE_FACTORIES, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        raise ConfigurationError(
            f"unknown store kind {kind!r}; expected one of: {known}{hint}"
        )
    if must_exist and not Path(path).exists():
        raise ConfigurationError(f"no cache at {path}")
    return factory(path)
