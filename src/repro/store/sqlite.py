"""The ``"sqlite"`` store: one WAL-mode database file.

Where the filesystem layout spends one file (and one inode, and one PFS
round-trip) per entry, :class:`SqliteStore` keeps an entire cache in a
single schema-versioned SQLite file — entries live in one indexed table,
so ``cache stats`` and gc are one query instead of a directory walk, and
shipping a warm cache to another machine is one ``scp``.

Semantics are identical to the filesystem store by construction:

* Every record stores the *verbatim JSON text* the filesystem layout would
  have written (``body``), alongside extracted indexed columns.  Migration
  (:mod:`repro.store.migrate`) copies bodies unchanged, so a cache
  round-tripped through SQLite and back is byte-identical — older-version
  and even corrupt entries included.
* Values are IEEE-754 doubles end to end (SQLite ``REAL`` is a double), so
  a hit is repr-exact; non-finite or unparseable records read as misses
  and are re-simulated, never propagated.
* Concurrency follows the cache's story: WAL mode gives many readers plus
  one writer at a time, a generous busy timeout serialises writers
  (threads in this process via one connection per thread, other processes
  via SQLite's own locking), and racing writers of the same key store the
  same deterministic bytes.

The schema is versioned in the ``meta`` table with the spool's contract: a
database pinned to a *newer* schema than the code understands is refused
loudly, never misread.
"""

from __future__ import annotations

import math
import os
import sqlite3
import threading
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

__all__ = ["SCHEMA_VERSION", "SqliteStore"]

#: On-file schema layout version (meta table, key ``schema_version``).
#: Still 1 although the ``traces`` table of older versions is gone: no
#: direction needs a refusal.  Older code opening a file written here
#: re-creates that table through ``CREATE TABLE IF NOT EXISTS``, and this
#: code never touches the table in an older file.
SCHEMA_VERSION = 1

#: How long an opener or writer waits for the database lock before failing.
_BUSY_TIMEOUT_S = 30.0

#: Pause between attempts to switch a database to WAL mode.
_WAL_RETRY_S = 0.01

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    digest   TEXT    NOT NULL,
    strategy TEXT    NOT NULL,
    seed     INTEGER NOT NULL,
    value    REAL,
    version  TEXT    NOT NULL,
    body     TEXT    NOT NULL,
    size     INTEGER NOT NULL,
    mtime    REAL    NOT NULL,
    PRIMARY KEY (digest, strategy, seed)
);
CREATE INDEX IF NOT EXISTS entries_version ON entries (version);
"""


def _is_locked(exc: sqlite3.DatabaseError) -> bool:
    return isinstance(exc, sqlite3.OperationalError) and "database is locked" in str(exc)


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL mode, waiting out lock holders.

    On a new (rollback-journal) file the switch upgrades a read lock to a
    write lock, and SQLite answers a contended upgrade with SQLITE_BUSY at
    once instead of calling the busy handler, so processes creating one
    store together retry here for up to the busy timeout.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if not _is_locked(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(_WAL_RETRY_S)


class SqliteStore(ResultStore):
    """Persistent ``(config digest, strategy, seed) -> float`` mapping in
    one SQLite file."""

    kind = "sqlite"

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.root = Path(path)
        if self.root.is_dir():
            raise ConfigurationError(
                f"sqlite store path {self.root} is a directory (expected a database file)"
            )
        self.root.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        self._connect()  # create or validate the schema eagerly

    # ------------------------------------------------------------ connections
    def _connect(self) -> sqlite3.Connection:
        """This thread's connection (one per thread; created on first use).

        ``check_same_thread=False`` only so :meth:`close` may close every
        connection from one thread — each connection is otherwise used
        exclusively by the thread that created it.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if self._closed:
            raise ConfigurationError(f"sqlite store {self.root} is closed")
        conn = sqlite3.connect(
            str(self.root),
            timeout=_BUSY_TIMEOUT_S,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
            check_same_thread=False,
        )
        try:
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            self._ensure_schema(conn)
        except sqlite3.DatabaseError as exc:
            conn.close()
            if _is_locked(exc):
                raise ConfigurationError(
                    f"timed out after {_BUSY_TIMEOUT_S:g} s waiting for the "
                    f"lock on sqlite store {self.root}"
                ) from exc
            raise ConfigurationError(
                f"{self.root} is not a sqlite result store: {exc}"
            ) from exc
        self._local.conn = conn
        with self._connections_lock:
            self._connections.append(conn)
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute("BEGIN IMMEDIATE")
        try:
            # One statement at a time: executescript would implicitly commit,
            # breaking the single-transaction create-and-version guarantee.
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            else:
                try:
                    found = int(row[0])
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{self.root}: unreadable schema version {row[0]!r}"
                    ) from exc
                if found > SCHEMA_VERSION:
                    # The spool's layout contract, applied to stores: newer
                    # layouts are refused loudly, never misread.
                    raise ConfigurationError(
                        f"{self.root} uses store schema v{found}, newer than "
                        f"this build understands (v{SCHEMA_VERSION}); upgrade "
                        "coopckpt instead of opening it with old code"
                    )
        finally:
            conn.execute("COMMIT")

    # ------------------------------------------------------------ values
    def probe(self, digest: str, strategy: str, seed: int) -> float | None:
        try:
            row = self._connect().execute(
                "SELECT value, version FROM entries WHERE digest = ? AND strategy = ? AND seed = ?",
                (digest, strategy, int(seed)),
            ).fetchone()
        except sqlite3.Error:
            # A contended or damaged database reads as a miss, mirroring the
            # filesystem store: the seed is re-simulated, never crashed on.
            row = None
        if row is None or row[0] is None or not serves_version(str(row[1])):
            return None
        value = float(row[0])
        return value if math.isfinite(value) else None

    # ------------------------------------------------------------ raw access
    def iter_raw_entries(self) -> Iterator[RawRecord]:
        cursor = self._connect().execute(
            "SELECT digest, strategy, seed, body FROM entries"
            " ORDER BY digest, strategy, seed"
        )
        for digest, strategy, seed, body in cursor:
            yield RawRecord(str(digest), str(strategy), int(seed), str(body))

    def put_raw_entry(self, digest: str, strategy: str, seed: int, body: str) -> None:
        value, version = parse_entry(body)
        self._connect().execute(
            "INSERT OR REPLACE INTO entries"
            " (digest, strategy, seed, value, version, body, size, mtime)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                digest,
                strategy,
                int(seed),
                value,
                version,
                body,
                len(body.encode("utf-8")),
                time.time(),
            ),
        )

    # ------------------------------------------------------------ maintenance
    def stats(self) -> CacheStats:
        """One aggregate query — no walk, whatever the entry count."""
        entries = 0
        total_bytes = 0
        versions: dict[str, int] = {}
        for version, count, size in self._connect().execute(
            "SELECT version, COUNT(*), COALESCE(SUM(size), 0) FROM entries GROUP BY version"
        ):
            entries += int(count)
            total_bytes += int(size)
            versions[str(version)] = int(count)
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
        """Prune by age and/or digest version; same semantics as the
        filesystem store (either criterion removes; ``dry_run`` counts
        without deleting)."""
        check_age_limit(older_than_s)
        conn = self._connect()
        if older_than_s is None and digest_version is None:
            return GcReport(scanned=len(self), dry_run=dry_run)
        conditions: list[str] = []
        params: list[object] = []
        if older_than_s is not None:
            conditions.append("(? - mtime) > ?")
            params.extend([time.time(), float(older_than_s)])
        if digest_version is not None:
            conditions.append("version = ?")
            params.append(digest_version)
        where = " OR ".join(conditions)
        conn.execute("BEGIN IMMEDIATE")
        try:
            scanned = int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
            removed, reclaimed = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries"
                f" WHERE {where}",  # noqa: S608 (literal conditions)
                params,
            ).fetchone()
            if not dry_run and removed:
                conn.execute(  # noqa: S608 (literal conditions)
                    f"DELETE FROM entries WHERE {where}", params
                )
        finally:
            conn.execute("COMMIT")
        return GcReport(
            scanned=scanned, removed=removed, reclaimed_bytes=reclaimed, dry_run=dry_run
        )

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Checkpoint the WAL and close every connection (idempotent)."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
            self._closed = True
        for conn in connections:
            try:
                # Fold the write-ahead log back into the main file so the
                # closed database is one self-contained artifact.
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # ------------------------------------------------------------ reporting
    def __len__(self) -> int:
        return int(self._connect().execute("SELECT COUNT(*) FROM entries").fetchone()[0])


register_store("sqlite", SqliteStore)
