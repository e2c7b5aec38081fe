"""The result-store contract, its record types and its open registry.

A *result store* holds the warm cache of simulated node-seconds the whole
system is built around: per-seed scalar values keyed by ``(config digest,
strategy, seed)``, and nothing else.  The storage engine is selectable the
same way execution backends and strategies are — by name, through an open
registry:

* ``"filesystem"`` — :class:`repro.store.filesystem.FilesystemStore`, one
  small JSON file per entry (the historical on-disk layout).
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

Every entry is one JSON text: :func:`entry_body` writes it and
:func:`parse_entry` reads it, whichever backend holds it.
:meth:`ResultStore.put` stores that text through the backend's
:meth:`~ResultStore.put_raw_entry`, so a value stored through any backend
has the same bytes.  :class:`~repro.exec.runner.ParallelRunner`,
:class:`~repro.distributed.worker.SpoolWorker` and the trace drill-down all
work against any backend unchanged.  A drill-down keeps nothing but the
cell's value: it re-simulates the cell to decompose it.
"""

from __future__ import annotations

import difflib
import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.errors import ConfigurationError, short_repr

__all__ = [
    "CacheStats",
    "DEFAULT_STORE",
    "GcReport",
    "RawRecord",
    "ResultStore",
    "check_age_limit",
    "entry_body",
    "open_store",
    "parse_entry",
    "register_store",
    "serves_version",
    "store_kinds",
]

#: The registry default: the historical on-disk layout.
DEFAULT_STORE = "filesystem"


class RawRecord(NamedTuple):
    """One entry as verbatim text, keyed by its cache coordinates.

    The unit of store-to-store migration (:mod:`repro.store.migrate`):
    ``body`` is the exact stored text, so copying raw records between
    stores — filesystem to SQLite and back — is byte-lossless in both
    directions, even for entries written under older digest versions.
    """

    digest: str
    strategy: str
    seed: int
    body: str


@dataclass(frozen=True)
class CacheStats:
    """Aggregate statistics of one result store.

    ``versions`` maps each digest-format version found in the entries to its
    entry count; entries written before versions were recorded show up
    under ``"unversioned"``.
    """

    entries: int = 0
    total_bytes: int = 0
    versions: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    scanned: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False


def check_age_limit(older_than_s: float | None) -> None:
    """Refuse a ``gc`` age limit that is negative or not finite.

    A negative limit would remove every entry, and NaN none, without a word.
    """
    if older_than_s is not None and not (older_than_s >= 0.0 and math.isfinite(older_than_s)):
        raise ConfigurationError(
            "gc's age limit must be a non-negative, finite number of seconds, "
            f"got {short_repr(older_than_s)}"
        )


def entry_body(digest: str, strategy: str, seed: int, value: float) -> str:
    """The JSON text of one entry, stamped with the current digest version.

    Python's JSON encoder writes floats with ``repr``, which is
    shortest-exact, so :func:`parse_entry` reads back the very same double.
    """
    from repro.exec.digest import DIGEST_VERSION

    return json.dumps(
        {
            "digest": digest,
            "strategy": strategy,
            "seed": int(seed),
            "value": float(value),
            "version": DIGEST_VERSION,
        }
    )


def serves_version(version: str) -> bool:
    """Whether a store read serves an entry stamped with ``version``.

    Only the current digest version and ``"unversioned"`` (entries written
    before versions were recorded) are served.  Any other version came from
    code that may simulate differently under the same key, so it reads as a
    miss: a miss costs one simulation, a hit would be silently wrong.
    """
    from repro.exec.digest import DIGEST_VERSION

    return version in (DIGEST_VERSION, "unversioned")


def parse_entry(body: str) -> tuple[float | None, str]:
    """``(value, digest version)`` of one entry body.

    The version is ``"corrupt"`` for unparseable or non-object JSON and
    ``"unversioned"`` for entries written before versions were recorded.
    The value is ``None`` when it is missing, mistyped or non-finite (a
    garbled write can still parse — ``NaN``/``Infinity`` are valid JSON
    extensions, but never valid simulation results), so a store reads such
    an entry as a miss.
    """
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None, "corrupt"
    if not isinstance(payload, dict):
        return None, "corrupt"
    version = str(payload.get("version", "unversioned"))
    try:
        value = float(payload["value"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return None, version
    if not math.isfinite(value):
        return None, version
    return value, version


class ResultStore:
    """Base class of result-store backends.

    Subclasses set :attr:`kind` and implement the methods below that raise
    :class:`NotImplementedError` (:meth:`probe` is the one lookup); they
    must also expose ``root`` (the store's path) and start the cumulative
    ``hits`` / ``misses`` / ``writes`` counters at 0, which :meth:`get` and
    :meth:`put` keep and the runner and ``/metrics`` report from.
    Malformed or non-finite records are *misses*, never errors.
    """

    #: Registry name of the backend (set on subclasses).
    kind = "abstract"

    root: Path
    hits: int
    misses: int
    writes: int

    # ------------------------------------------------------------ values
    def get(self, digest: str, strategy: str, seed: int) -> float | None:
        """Cached value for one key, or ``None`` on a miss, counted as a hit
        or a miss: one :meth:`probe` plus the count."""
        value = self.probe(digest, strategy, seed)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def probe(self, digest: str, strategy: str, seed: int) -> float | None:
        """Cached value for one key, or ``None`` on a miss; counts nothing.

        The backend's one lookup.  Distributed submitters and drill-downs
        probe the store directly, so availability polls never count as
        misses, and a probe on one thread leaves another thread's
        :meth:`get` counts as they are.
        """
        raise NotImplementedError

    def put(self, digest: str, strategy: str, seed: int, value: float) -> None:
        """Store one value atomically (safe under concurrent writers)."""
        self.put_raw_entry(digest, strategy, seed, entry_body(digest, strategy, seed, value))
        self.writes += 1

    # ------------------------------------------------------------ raw access
    def iter_raw_entries(self) -> Iterator[RawRecord]:
        """Every entry as verbatim text (the lossless migration surface)."""
        raise NotImplementedError

    def put_raw_entry(self, digest: str, strategy: str, seed: int, body: str) -> None:
        """Store one entry's verbatim text, unchanged (no re-encoding, no
        version stamp), so a migrated store is indistinguishable from the
        original."""
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
        """Prune entries so long-lived stores don't grow unbounded.

        ``older_than_s`` removes entries last written more than that many
        seconds ago; ``digest_version`` removes entries recorded under that
        digest-format version (``"unversioned"`` matches pre-version
        entries, ``"corrupt"`` matches unparseable ones).  With both
        criteria given an entry is removed when *either* matches; with
        neither, nothing is removed.  ``dry_run`` counts without deleting.
        A negative or non-finite ``older_than_s`` is a
        :class:`~repro.errors.ConfigurationError` (:func:`check_age_limit`).
        """
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

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


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
