"""On-disk cache of per-seed simulation results.

A :class:`ResultCache` stores one scalar metric per completed simulation,
keyed by ``(config digest, strategy, seed)``.  Re-running a sweep with a
larger ``num_runs`` therefore only simulates the seeds that were not seen
before, and re-rendering a figure from an unchanged configuration touches no
simulation at all.

Layout: one small JSON file per entry, ::

    <root>/<digest[:2]>/<digest>/<strategy>/<seed>.json

Sharding by digest prefix keeps directories small on large parameter
sweeps; one-file-per-entry keeps concurrent writers (parallel workers,
several processes sharing a cache directory) safe without locking — entries
are written atomically via a temporary file and :func:`os.replace`, and the
value for a given key is deterministic, so racing writers simply store the
same bytes.

Values round-trip exactly: Python's JSON encoder serialises floats with
``repr``, which is shortest-exact, so a cache hit is bit-identical to the
simulation it replaced.

Each shard additionally keeps an append-only index journal
(``<shard>/.index.jsonl``, one record per entry write) so
:meth:`ResultCache.stats` reads O(shards) files instead of stat-walking
every entry.  The journal is advisory (see :mod:`repro.exec.journal`):
shards without one — written by older code, or populated out-of-band — are
walked once and indexed; rewrites of the same path fold to the *latest*
record, so a corrupt-then-rewritten entry counts once, not twice; and
:meth:`ResultCache.gc` rebuilds the journals from the directory tree after
pruning, which re-synchronises them with any external deletion.

Caches written by older versions may also hold ``<seed>.trace`` drill-down
sidecars and ``"kind": "trace"`` journal records.  Nothing reads, counts,
copies or deletes the sidecar files (a drill-down re-simulates its one cell
instead); a pruning gc rebuilds the journals without those records.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.exec.journal import append_record, read_records

__all__ = ["CacheStats", "GcReport", "RawRecord", "ResultCache", "atomic_write_text"]

#: Name of the per-shard index journal (hidden: never globbed as an entry).
_INDEX_NAME = ".index.jsonl"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + :func:`os.replace`).

    Safe under concurrent writers on the same filesystem: readers observe
    either the old content or the new, never a torn write.  Shared by the
    result cache and the distributed work spool, whose correctness both
    rest on this property.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        # BaseException, not OSError: a KeyboardInterrupt (or any other
        # non-OSError) escaping mid-write must not leak the temp file either.
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


class RawRecord(NamedTuple):
    """One entry as verbatim text, keyed by its cache coordinates.

    The unit of store-to-store migration (:mod:`repro.store.migrate`):
    ``body`` is the exact on-disk text, so copying raw records between
    stores — filesystem to SQLite and back — is byte-lossless in both
    directions, even for entries written under older digest versions.
    """

    digest: str
    strategy: str
    seed: int
    body: str


def _body_version(body: str) -> str:
    """Digest-format version recorded in one entry body (``"corrupt"`` when
    unparseable, mirroring :meth:`ResultCache._entry_version`)."""
    try:
        return str(json.loads(body).get("version", "unversioned"))
    except (json.JSONDecodeError, AttributeError):
        return "corrupt"


@dataclass(frozen=True)
class CacheStats:
    """Aggregate statistics of one on-disk cache directory.

    ``versions`` maps each digest-format version found in the entries to its
    entry count; entries written before versions were recorded (PR ≤ 2) show
    up under ``"unversioned"``.
    """

    entries: int = 0
    total_bytes: int = 0
    versions: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    scanned: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False


class ResultCache:
    """Persistent ``(config digest, strategy, seed) -> float`` mapping.

    Attributes
    ----------
    root:
        Cache directory (created on first use).
    hits / misses / writes:
        Cumulative counters, useful to assert cache behaviour in tests and
        to report effectiveness from benchmarks.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"cache path {self.root} exists and is not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------ layout
    def _entry_path(self, digest: str, strategy: str, seed: int) -> Path:
        return self.root / digest[:2] / digest / strategy / f"{seed}.json"

    def _journal_path(self, shard: str) -> Path:
        return self.root / shard / _INDEX_NAME

    def _journal_put(self, kind: str, path: Path, size: int, version: str) -> None:
        """Record one write in the shard's index journal (best effort: a
        lost append degrades stats to the next walk, never breaks them)."""
        rel = path.relative_to(self.root).as_posix()
        shard = rel.split("/", 1)[0]
        try:
            append_record(
                self._journal_path(shard),
                {"kind": kind, "path": rel, "bytes": size, "version": version},
            )
        except OSError:
            pass

    # ------------------------------------------------------------ access
    def get(self, digest: str, strategy: str, seed: int) -> float | None:
        """Cached value for one key, or ``None`` on a miss.

        Corrupt entries never propagate: unreadable files, malformed or
        truncated JSON, wrong payload shapes and non-finite values (a
        truncated/garbled write can still parse — ``NaN``/``Infinity`` are
        valid JSON extensions, but never valid simulation results) all count
        as misses, so the seed is re-simulated and the entry rewritten
        instead of the corruption killing a whole campaign.
        """
        path = self._entry_path(digest, strategy, seed)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            value = float(entry["value"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Unreadable or malformed entries (stray files, foreign formats)
            # count as misses: the seed is simply re-simulated.
            self.misses += 1
            return None
        if not math.isfinite(value):
            self.misses += 1
            return None
        self.hits += 1
        return value

    # The submitter-facing probe API: availability checks that do not skew
    # the hit/miss counters the runner reports for its own lookups.
    def probe(self, digest: str, strategy: str, seed: int) -> float | None:
        """Like :meth:`get`, but without touching the hit/miss counters.

        Distributed submitters poll the cache while remote workers fill it;
        counting every poll as a miss would make the runner's cache report
        meaningless, so availability probes are counter-neutral.
        """
        hits, misses = self.hits, self.misses
        value = self.get(digest, strategy, seed)
        self.hits, self.misses = hits, misses
        return value

    def put(self, digest: str, strategy: str, seed: int, value: float) -> None:
        """Store one value atomically (safe under concurrent writers)."""
        from repro.exec.digest import DIGEST_VERSION

        path = self._entry_path(digest, strategy, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "digest": digest,
            "strategy": strategy,
            "seed": int(seed),
            "value": float(value),
            "version": DIGEST_VERSION,
        }
        text = json.dumps(entry)
        atomic_write_text(path, text)
        self._journal_put("entry", path, len(text.encode("utf-8")), DIGEST_VERSION)
        self.writes += 1

    # ------------------------------------------------------------ raw access
    # The migration surface used by repro.store: entries travel as verbatim
    # text (RawRecord), so copying a cache into another store backend and
    # back reproduces every file byte-for-byte — including entries written
    # under older digest versions, which a value-level copy would re-stamp.

    def _raw_record(self, path: Path) -> RawRecord | None:
        """The raw record behind one entry path, or ``None`` for files
        that are not cache entries (stray names, foreign layouts)."""
        try:
            seed = int(path.stem)
        except ValueError:
            return None
        strategy = path.parent.name
        digest = path.parent.parent.name
        if path.parent.parent.parent.name != digest[:2]:
            return None  # not where this digest's entries live
        try:
            body = path.read_text(encoding="utf-8")
        except OSError:
            return None
        return RawRecord(digest, strategy, seed, body)

    def iter_raw_entries(self) -> Iterator[RawRecord]:
        """Every entry as verbatim text, in deterministic path order."""
        for path in sorted(self._entries()):
            record = self._raw_record(path)
            if record is not None:
                yield record

    def put_raw_entry(self, digest: str, strategy: str, seed: int, body: str) -> None:
        """Store one entry's verbatim text (atomic; journal kept in sync).

        The body is written unchanged — no re-encoding, no version stamp —
        so a migrated cache is indistinguishable from the original.
        """
        path = self._entry_path(digest, strategy, int(seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, body)
        self._journal_put("entry", path, len(body.encode("utf-8")), _body_version(body))

    # ------------------------------------------------------------ maintenance
    def _entries(self) -> Iterator[Path]:
        """Every entry file currently on disk (excluding in-flight temps)."""
        return self.root.glob("*/*/*/*.json")

    def _shard_names(self) -> list[str]:
        return sorted(
            path.name for path in self.root.iterdir() if path.is_dir()
        )

    @staticmethod
    def _entry_version(path: Path) -> str:
        try:
            with path.open("r", encoding="utf-8") as handle:
                return str(json.load(handle).get("version", "unversioned"))
        except (OSError, json.JSONDecodeError, AttributeError):
            # Unparseable entries still occupy their measured bytes, so
            # stats agrees with what `gc --digest-version corrupt` reclaims.
            return "corrupt"

    def _walk_shard(self, shard: str) -> dict[str, dict]:
        """Index one shard from its directory tree (the slow path)."""
        folded: dict[str, dict] = {}
        for path in (self.root / shard).glob("*/*/*.json"):
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            rel = path.relative_to(self.root).as_posix()
            folded[rel] = {
                "kind": "entry",
                "path": rel,
                "bytes": size,
                "version": self._entry_version(path),
            }
        return folded

    def _write_shard_index(self, shard: str, folded: dict[str, dict]) -> None:
        """Persist one shard's folded index (or drop it when the shard is
        empty, so directory cleanup can remove the shard).  Best effort."""
        journal = self._journal_path(shard)
        try:
            if not folded:
                journal.unlink(missing_ok=True)
                return
            atomic_write_text(
                journal,
                "".join(
                    json.dumps(record, separators=(",", ":")) + "\n"
                    for record in folded.values()
                ),
            )
        except OSError:
            pass

    def _shard_index(self, shard: str) -> dict[str, dict]:
        """One shard's entry index, journal-first.

        A journaled shard is read from its journal alone — deduplicated by
        path with the latest record winning, so a corrupt-then-rewritten
        entry on a resumed campaign is counted once.  Records of any other
        kind (older versions journaled ``"trace"`` sidecars) are skipped.
        A shard with no journal (older layout, or populated out-of-band) is
        walked once and its journal written, migrating it.
        """
        journal = self._journal_path(shard)
        if not journal.exists():
            folded = self._walk_shard(shard)
            self._write_shard_index(shard, folded)
            return folded
        folded = {}
        for record in read_records(journal):
            rel = record.get("path")
            if record.get("kind") != "entry" or not isinstance(rel, str):
                continue
            if rel.startswith("/") or ".." in rel.split("/"):
                continue  # a journal must never index outside the cache
            folded[rel] = record
        return folded

    def stats(self) -> CacheStats:
        """Aggregate entry count, bytes and versions, one journal per shard.

        Costs O(shards touched): each journaled shard is one file read, and
        only journal-less shards fall back to a directory walk (which also
        writes their journal, so the walk happens once per shard ever).
        """
        entries = 0
        total_bytes = 0
        versions: dict[str, int] = {}
        for shard in self._shard_names():
            for record in self._shard_index(shard).values():
                try:
                    total_bytes += int(record.get("bytes", 0))
                except (TypeError, ValueError):
                    pass
                entries += 1
                version = str(record.get("version", "unversioned"))
                versions[version] = versions.get(version, 0) + 1
        return CacheStats(
            entries=entries,
            total_bytes=total_bytes,
            versions=dict(sorted(versions.items())),
        )

    def gc(
        self,
        *,
        older_than_s: float | None = None,
        digest_version: str | None = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Prune entries so long-lived cache directories don't grow unbounded.

        ``older_than_s`` removes entries whose file modification time is more
        than that many seconds in the past; ``digest_version`` removes entries
        recorded under that digest-format version (``"unversioned"`` matches
        pre-version entries, ``"corrupt"`` matches unparseable ones).  With
        both criteria given an entry is removed when *either* matches; with
        neither, nothing is removed.  Empty digest/strategy directories left
        behind are cleaned up as well.
        """
        if older_than_s is None and digest_version is None:
            return GcReport(scanned=sum(1 for _ in self._entries()), dry_run=dry_run)
        now = time.time()
        scanned = removed = reclaimed = 0
        for path in self._entries():
            scanned += 1
            try:
                stat = path.stat()
            except OSError:
                continue
            expired = older_than_s is not None and (now - stat.st_mtime) > older_than_s
            version_match = False
            if digest_version is not None:
                try:
                    with path.open("r", encoding="utf-8") as handle:
                        version = str(json.load(handle).get("version", "unversioned"))
                except (OSError, json.JSONDecodeError, AttributeError):
                    version = "corrupt"
                version_match = version == digest_version
            if not (expired or version_match):
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            reclaimed += stat.st_size
        if not dry_run and removed:
            # The prune invalidated the shard journals; rebuild them from
            # the surviving tree (this also re-synchronises shards modified
            # out-of-band, e.g. entries deleted externally).  Emptied shards
            # drop their journal so the directory sweep can remove them.
            for shard in self._shard_names():
                self._write_shard_index(shard, self._walk_shard(shard))
            # Drop now-empty <strategy>/, <digest>/ and <shard>/ directories.
            for depth in ("*/*/*", "*/*", "*"):
                for directory in self.root.glob(depth):
                    try:
                        directory.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return GcReport(scanned=scanned, removed=removed, reclaimed_bytes=reclaimed, dry_run=dry_run)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release store resources.

        A no-op for the filesystem layout (every operation is already
        self-contained), defined so callers can close any
        :class:`repro.store.ResultStore` uniformly.
        """

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        """Number of entries currently on disk (walks the cache tree)."""
        return sum(1 for _ in self._entries())

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )
