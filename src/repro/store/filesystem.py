"""The ``"filesystem"`` store: one small JSON file per entry.

Layout, ::

    <root>/<digest[:2]>/<digest>/<strategy>/<seed>.json

Sharding by digest prefix keeps directories small on large parameter
sweeps; one-file-per-entry keeps concurrent writers (parallel workers,
several processes sharing a cache directory) safe without locking — entries
are written atomically via a temporary file and :func:`os.replace`, and the
value for a given key is deterministic, so racing writers simply store the
same bytes.  A directory populated by any earlier release opens unchanged
(the golden pins of ``tests/test_golden_regression.py`` hold its bytes).

Each shard additionally keeps an append-only index journal
(``<shard>/.index.jsonl``, one record per entry write) so
:meth:`FilesystemStore.stats` reads O(shards) files instead of
stat-walking every entry.  The format is deliberately minimal:

* one JSON object per line, appended with a single buffered write — on a
  POSIX filesystem ``O_APPEND`` writes of a short line are atomic, so any
  number of writers can append to the same shard journal without locks;
* a journal is *advisory*: it can lag the directory it indexes (a crash
  between an entry write and its journal append), so it is an accelerator
  over a directory walk, never the source of record.  Shards without one —
  written by older code, or populated out-of-band — are walked once and
  indexed; rewrites of the same path fold to the *latest* record, so a
  corrupt-then-rewritten entry counts once, not twice; and
  :meth:`FilesystemStore.gc` rebuilds the journals from the directory tree
  after pruning, which re-synchronises them with any external deletion;
* a torn final line (a writer died mid-append, or the reader raced an
  append) is treated as absent: only newline-terminated lines are read,
  and unparseable ones are skipped.

Caches written by older versions may also hold ``<seed>.trace`` drill-down
sidecars and ``"kind": "trace"`` journal records.  Nothing reads, counts,
copies or deletes the sidecar files (a drill-down re-simulates its one cell
instead); a pruning gc rebuilds the journals without those records.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

from repro.errors import ConfigurationError
from repro.store.base import (
    CacheStats,
    GcReport,
    RawRecord,
    ResultStore,
    check_age_limit,
    parse_entry,
    register_store,
    serves_version,
)

__all__ = ["FilesystemStore", "atomic_write_text"]

#: Name of the per-shard index journal (hidden: never globbed as an entry).
_INDEX_NAME = ".index.jsonl"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + :func:`os.replace`).

    Safe under concurrent writers on the same filesystem: readers observe
    either the old content or the new, never a torn write.  Shared by the
    filesystem store and the distributed work spool, whose correctness both
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


def _append_record(path: Path, record: dict) -> None:
    """Append one record as a single JSONL line (parents created on demand).

    The line is serialised first and written with one call, so concurrent
    appenders on the same filesystem interleave whole lines, never bytes.
    """
    line = json.dumps(record, separators=(",", ":")) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


def _read_records(path: Path) -> list[dict]:
    """Every complete, parseable record of one journal (missing file = []).

    A torn final line (no trailing newline yet) is left for a later read,
    so a reader never consumes half an append.  Unparseable complete lines
    are skipped — a corrupt journal degrades to "fewer records", never to
    an error.
    """
    try:
        with open(path, "rb") as handle:
            chunk = handle.read()
    except OSError:
        return []
    records: list[dict] = []
    for raw in chunk[: chunk.rfind(b"\n") + 1].splitlines():
        try:
            record = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _read_entry(path: Path) -> tuple[float | None, str]:
    """:func:`~repro.store.base.parse_entry` of one entry file.

    An unreadable file is ``"corrupt"``: it still occupies its measured
    bytes, so stats agrees with what ``gc --digest-version corrupt``
    reclaims.
    """
    try:
        body = path.read_text(encoding="utf-8")
    except (OSError, ValueError):
        return None, "corrupt"
    return parse_entry(body)


class FilesystemStore(ResultStore):
    """Persistent ``(config digest, strategy, seed) -> float`` mapping in one
    directory of JSON entries (the default store)."""

    kind = "filesystem"

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

    def _journal_put(self, path: Path, size: int, version: str) -> None:
        """Record one entry write in the shard's index journal (best effort:
        a lost append degrades stats to the next walk, never breaks them)."""
        rel = path.relative_to(self.root).as_posix()
        shard = rel.split("/", 1)[0]
        try:
            _append_record(
                self._journal_path(shard),
                {"kind": "entry", "path": rel, "bytes": size, "version": version},
            )
        except OSError:
            pass

    # ------------------------------------------------------------ access
    def probe(self, digest: str, strategy: str, seed: int) -> float | None:
        """Cached value for one key, or ``None`` on a miss (nothing counted).

        Corrupt entries never propagate: unreadable files, malformed or
        truncated JSON, wrong payload shapes and non-finite values all
        read as misses, so the seed is re-simulated and the entry
        rewritten instead of the corruption killing a whole campaign.  An
        entry stamped with another digest version reads as a miss too
        (:func:`~repro.store.base.serves_version`).
        """
        value, version = _read_entry(self._entry_path(digest, strategy, seed))
        return value if serves_version(version) else None

    # ------------------------------------------------------------ raw access
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
        """Store one entry's verbatim text (atomic; journal kept in sync)."""
        path = self._entry_path(digest, strategy, int(seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, body)
        self._journal_put(path, len(body.encode("utf-8")), parse_entry(body)[1])

    # ------------------------------------------------------------ maintenance
    def _entries(self) -> Iterator[Path]:
        """Every entry file currently on disk (excluding in-flight temps)."""
        return self.root.glob("*/*/*/*.json")

    def _shard_names(self) -> list[str]:
        return sorted(
            path.name for path in self.root.iterdir() if path.is_dir()
        )

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
                "version": _read_entry(path)[1],
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
        for record in _read_records(journal):
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
        """Prune entries by file modification time and/or digest version.

        Empty digest/strategy directories left behind are cleaned up as
        well (see :meth:`ResultStore.gc` for the criteria).
        """
        check_age_limit(older_than_s)
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
            version_match = (
                digest_version is not None and _read_entry(path)[1] == digest_version
            )
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

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        """Number of entries currently on disk (walks the cache tree)."""
        return sum(1 for _ in self._entries())


register_store("filesystem", FilesystemStore)
