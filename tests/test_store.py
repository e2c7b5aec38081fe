"""The pluggable result-store layer (repro.store).

Contract under test: the ``filesystem`` backend *is* the historical
``ResultCache`` (same class, same bytes), the ``sqlite`` backend holds the
same records in one WAL-mode file, ``stats``/``gc`` report identically over
either, and ``copy_store`` migrates a cache losslessly in both directions —
round-tripping filesystem -> SQLite -> filesystem reproduces every entry
and trace sidecar byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.digest import DIGEST_VERSION
from repro.store import (
    DEFAULT_STORE,
    FilesystemStore,
    SqliteStore,
    copy_store,
    open_store,
    register_store,
    store_kinds,
)

D1 = "a" * 64
D2 = "b" * 64


def _fill(store, *, traces: bool = True) -> None:
    store.put(D1, "least-waste", 7, 0.125)
    store.put(D1, "least-waste", 8, 0.1234567890123456789)  # repr-exact float
    store.put(D2, "ordered-daly", 7, 0.5)
    if traces:
        store.put_trace(D1, "least-waste", 7, {"events": [1, 2], "waste": 0.125})


# ------------------------------------------------------------------ registry
def test_registry_lists_builtins_and_default():
    assert {"filesystem", "sqlite"} <= set(store_kinds())
    assert DEFAULT_STORE == "filesystem"


def test_open_store_unknown_kind_suggests_close_match(tmp_path):
    with pytest.raises(ConfigurationError, match=r"did you mean 'sqlite'\?"):
        open_store("sqlte", tmp_path / "x")
    with pytest.raises(ConfigurationError, match="expected one of"):
        open_store("redis", tmp_path / "x")


def test_open_store_must_exist(tmp_path):
    with pytest.raises(ConfigurationError, match="no cache at"):
        open_store("filesystem", tmp_path / "absent", must_exist=True)
    # Without must_exist the path is created on demand (both backends).
    open_store("filesystem", tmp_path / "fs").close()
    open_store("sqlite", tmp_path / "db.sqlite").close()
    assert (tmp_path / "fs").is_dir() and (tmp_path / "db.sqlite").is_file()


def test_register_store_rejects_duplicates_and_blank_names(tmp_path):
    with pytest.raises(ConfigurationError, match="already registered"):
        register_store("sqlite", lambda path: SqliteStore(path))
    with pytest.raises(ConfigurationError):
        register_store("", lambda path: SqliteStore(path))
    # replace_existing is the explicit escape hatch (restore immediately).
    register_store("sqlite", lambda path: SqliteStore(path), replace_existing=True)
    assert isinstance(open_store("sqlite", tmp_path / "z.sqlite"), SqliteStore)


def test_filesystem_store_is_the_result_cache():
    # Identity by inheritance: the default backend cannot drift from the
    # cache layout the golden pins verify.
    assert issubclass(FilesystemStore, ResultCache)
    assert FilesystemStore.kind == "filesystem"


# ------------------------------------------------------------------ sqlite
def test_sqlite_roundtrip_and_counters(tmp_path):
    store = SqliteStore(tmp_path / "db.sqlite")
    assert store.get(D1, "least-waste", 7) is None
    assert store.misses == 1
    store.put(D1, "least-waste", 7, 0.1234567890123456789)
    assert store.get(D1, "least-waste", 7) == 0.1234567890123456789
    assert (store.hits, store.misses, store.writes) == (1, 1, 1)
    # probe() never perturbs the hit/miss counters (ResultStore contract).
    assert store.probe(D1, "least-waste", 7) == 0.1234567890123456789
    assert (store.hits, store.misses) == (1, 1)
    assert len(store) == 1
    store.close()


def test_sqlite_trace_sidecar_roundtrip_and_version_discipline(tmp_path):
    store = SqliteStore(tmp_path / "db.sqlite")
    payload = {"events": [{"t": 0.5}], "waste": 0.25}
    store.put_trace(D1, "least-waste", 7, payload)
    # Like the filesystem cache, the payload reads back with its version stamp.
    assert store.get_trace(D1, "least-waste", 7) == {**payload, "version": DIGEST_VERSION}
    # A sidecar stamped by a different digest version is a miss, exactly
    # like the filesystem cache.
    conn = sqlite3.connect(str(store.root))
    conn.execute(
        "UPDATE traces SET body = ?, version = ?",
        (json.dumps({**payload, "version": "1"}), "1"),
    )
    conn.commit()
    conn.close()
    assert store.get_trace(D1, "least-waste", 7) is None
    store.close()


def test_sqlite_non_finite_and_corrupt_rows_read_as_misses(tmp_path):
    store = SqliteStore(tmp_path / "db.sqlite")
    store.put_raw_entry(D1, "s", 1, "this is not json")
    store.put_raw_entry(D1, "s", 2, json.dumps({"value": "NaN", "version": "2"}))
    assert store.get(D1, "s", 1) is None
    assert store.get(D1, "s", 2) is None
    stats = store.stats()
    assert stats.entries == 2
    assert stats.versions.get("corrupt") == 1  # unparseable body
    assert stats.versions.get("2") == 1  # parseable body, unusable value
    store.close()


def test_sqlite_rejects_foreign_and_newer_files(tmp_path):
    garbage = tmp_path / "garbage.sqlite"
    garbage.write_text("definitely not a database")
    with pytest.raises(ConfigurationError, match="not a sqlite result store"):
        SqliteStore(garbage)
    newer = tmp_path / "newer.sqlite"
    SqliteStore(newer).close()
    conn = sqlite3.connect(str(newer))
    conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(ConfigurationError, match="schema v99, newer"):
        SqliteStore(newer)
    with pytest.raises(ConfigurationError, match="is a directory"):
        SqliteStore(tmp_path)


def _hold_write_lock(path, journal_mode: str) -> sqlite3.Connection:
    """A peer connection holding the write lock of ``path``, as a process
    creating the store does until its schema transaction commits."""
    holder = sqlite3.connect(str(path), isolation_level=None)
    holder.execute(f"PRAGMA journal_mode={journal_mode}")
    holder.execute("BEGIN IMMEDIATE")
    holder.execute("CREATE TABLE peer (x)")
    return holder


_OPEN_STORE = """
import sys
from repro.store import SqliteStore
print("ready", flush=True)
SqliteStore(sys.argv[1]).close()
"""


def test_sqlite_processes_opening_a_new_store_together_wait_for_the_lock(tmp_path):
    # A rollback-journal file's switch to WAL got SQLITE_BUSY at once while a
    # peer held the write lock, instead of waiting for the busy timeout.
    path = tmp_path / "new.sqlite"
    holder = _hold_write_lock(path, "delete")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")])
    )
    openers = [
        subprocess.Popen(
            [sys.executable, "-c", _OPEN_STORE, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(3)
    ]
    try:
        for opener in openers:
            assert opener.stdout.readline() == "ready\n"
        time.sleep(0.3)  # every opener is now contending for the held lock
    finally:
        holder.execute("COMMIT")
        holder.close()
    for opener in openers:
        _, stderr = opener.communicate(timeout=60)
        assert opener.returncode == 0, stderr
    store = SqliteStore(path)
    store.put(D1, "least-waste", 7, 0.125)
    assert store.get(D1, "least-waste", 7) == 0.125
    store.close()


@pytest.mark.parametrize("journal_mode", ["delete", "wal"])
def test_sqlite_lock_timeout_is_reported_as_a_lock_timeout(tmp_path, monkeypatch, journal_mode):
    monkeypatch.setattr("repro.store.sqlite._BUSY_TIMEOUT_S", 0.2)
    path = tmp_path / "held.sqlite"
    holder = _hold_write_lock(path, journal_mode)
    try:
        with pytest.raises(ConfigurationError, match="timed out after 0.2 s waiting for the lock"):
            SqliteStore(path)
    finally:
        holder.execute("ROLLBACK")
        holder.close()


# ------------------------------------------------------ backend equivalence
@pytest.mark.parametrize("kind", ["filesystem", "sqlite"])
def test_stats_identical_across_backends(tmp_path, kind):
    store = open_store(kind, tmp_path / ("s" if kind == "filesystem" else "s.sqlite"))
    _fill(store)
    stats = store.stats()
    assert stats.entries == 3
    assert stats.versions == {DIGEST_VERSION: 3}
    assert stats.trace_sidecars == 1
    assert stats.trace_bytes > 0
    store.close()


def test_stats_and_gc_reports_agree_between_backends(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    for store in (fs, sq):
        _fill(store)
    assert fs.stats() == sq.stats()

    # gc by digest version: same scan/removal accounting on both engines
    # (an entry and its sidecar count as one removal), and --dry-run
    # touches nothing.
    for store in (fs, sq):
        dry = store.gc(digest_version=DIGEST_VERSION, dry_run=True)
        assert (dry.scanned, dry.removed) == (3, 3)
        assert store.stats().entries == 3  # dry run removed nothing
    real_fs = fs.gc(digest_version=DIGEST_VERSION)
    real_sq = sq.gc(digest_version=DIGEST_VERSION)
    assert real_fs == real_sq
    assert len(fs) == len(sq) == 0
    assert fs.stats().trace_sidecars == sq.stats().trace_sidecars == 0
    fs.close()
    sq.close()


def test_sqlite_gc_older_than_and_orphan_sweep(tmp_path):
    store = SqliteStore(tmp_path / "db.sqlite")
    _fill(store)
    # Age one entry far into the past; its sidecar goes with it.
    conn = sqlite3.connect(str(store.root))
    conn.execute(
        "UPDATE entries SET mtime = mtime - 864000 WHERE seed = 7 AND digest = ?",
        (D1,),
    )
    conn.commit()
    conn.close()
    report = store.gc(older_than_s=86400.0)
    assert report.scanned == 3
    assert report.removed == 1  # the aged entry, its sidecar riding along
    assert store.probe(D1, "least-waste", 8) is not None  # younger survivor
    assert store.get_trace(D1, "least-waste", 7) is None
    store.close()


# ------------------------------------------------------------------ migration
def _records(store):
    return (
        {(r.digest, r.strategy, r.seed): r.body for r in store.iter_raw_entries()},
        {(r.digest, r.strategy, r.seed): r.body for r in store.iter_raw_traces()},
    )


def test_migration_roundtrip_is_byte_identical(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    _fill(fs)
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    report = copy_store(fs, sq)
    assert (report.entries, report.traces) == (3, 1)
    back = open_store("filesystem", tmp_path / "back")
    copy_store(sq, back)

    assert _records(fs) == _records(sq) == _records(back)
    # Stronger than record equality: the round-tripped directory holds the
    # same relative entry/trace files with the same bytes.
    original = {
        p.relative_to(fs.root): p.read_bytes()
        for p in fs.root.rglob("*")
        if p.is_file() and p.name != ".index.jsonl"
    }
    returned = {
        p.relative_to(back.root): p.read_bytes()
        for p in back.root.rglob("*")
        if p.is_file() and p.name != ".index.jsonl"
    }
    assert original == returned
    # The shard journals record the same lines (append order may differ).
    for shard in fs.root.glob("*/.index.jsonl"):
        twin = back.root / shard.relative_to(fs.root)
        assert sorted(shard.read_text().splitlines()) == sorted(
            twin.read_text().splitlines()
        )
    # The values read back identically (repr-exact floats included).
    for store in (fs, sq, back):
        assert store.get(D1, "least-waste", 8) == 0.1234567890123456789
        assert store.get_trace(D1, "least-waste", 7)["waste"] == 0.125
        store.close()


def test_migration_is_idempotent_and_preserves_corrupt_bodies(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    _fill(fs)
    fs.put_raw_entry(D2, "weird", 3, "not json at all")  # migrated verbatim
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    first = copy_store(fs, sq)
    second = copy_store(fs, sq)  # overwrites with identical bytes
    assert first == second
    assert _records(fs) == _records(sq)
    assert sq.get(D2, "weird", 3) is None  # corrupt stays unusable, not lost
    fs.close()
    sq.close()


def test_raw_iteration_order_is_deterministic(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    for store in (fs, sq):
        _fill(store)
        keys = [(r.digest, r.strategy, r.seed) for r in store.iter_raw_entries()]
        assert keys == sorted(keys)
        store.close()


def test_store_value_fidelity_across_backends(tmp_path):
    # The exact doubles the simulator produces survive each backend bit-
    # for-bit (sqlite REAL columns and JSON repr both preserve IEEE 754).
    values = [0.1 + 0.2, 1e-300, math.pi, 2**-52, 0.9999999999999999]
    fs = open_store("filesystem", tmp_path / "fs")
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    for store in (fs, sq):
        for seed, value in enumerate(values):
            store.put(D1, "s", seed, value)
        got = [store.probe(D1, "s", seed) for seed in range(len(values))]
        assert [repr(g) for g in got] == [repr(v) for v in values]
        store.close()
