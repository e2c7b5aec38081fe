"""The pluggable result-store layer (repro.store).

Contract under test: every backend stores the same entry text through
one ``put`` (``entry_body``) and reads it through one parser
(``parse_entry``), the ``sqlite`` backend holds the filesystem layout's
records in one WAL-mode file, ``stats``/``gc`` report identically over
either, and ``copy_store`` migrates a cache losslessly in both directions —
round-tripping filesystem -> SQLite -> filesystem reproduces every entry
byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec.digest import DIGEST_VERSION
from repro.store import (
    DEFAULT_STORE,
    FilesystemStore,
    SqliteStore,
    copy_store,
    entry_body,
    open_store,
    parse_entry,
    register_store,
    store_kinds,
)

D1 = "a" * 64
D2 = "b" * 64


def _fill(store) -> None:
    store.put(D1, "least-waste", 7, 0.125)
    store.put(D1, "least-waste", 8, 0.1234567890123456789)  # repr-exact float
    store.put(D2, "ordered-daly", 7, 0.5)


#: The ``traces`` table older versions created in every SQLite store.
_OLD_TRACES_TABLE = """
CREATE TABLE traces (
    digest   TEXT    NOT NULL,
    strategy TEXT    NOT NULL,
    seed     INTEGER NOT NULL,
    version  TEXT    NOT NULL,
    body     TEXT    NOT NULL,
    size     INTEGER NOT NULL,
    mtime    REAL    NOT NULL,
    PRIMARY KEY (digest, strategy, seed)
)
"""


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


# ------------------------------------------------------------------ entries
@pytest.mark.parametrize(
    "body, expected",
    [
        (entry_body(D1, "least-waste", 7, 0.125), (0.125, DIGEST_VERSION)),
        ('{"value": 0.5}', (0.5, "unversioned")),
        ("this is not json", (None, "corrupt")),
        ("[0.5]", (None, "corrupt")),
        ('{"value": NaN, "version": "2"}', (None, "2")),
        ('{"version": "1"}', (None, "1")),
    ],
    ids=["valid", "unversioned", "not-json", "list", "nan", "no-value"],
)
def test_parse_entry(body, expected):
    assert parse_entry(body) == expected


def test_put_stores_the_same_body_through_every_backend(tmp_path):
    value = 0.1234567890123456789
    body = entry_body(D1, "least-waste", 7, value)
    # The entry text every earlier release wrote, key order included.
    assert body == json.dumps(
        {"digest": D1, "strategy": "least-waste", "seed": 7, "value": value,
         "version": DIGEST_VERSION}
    )
    for store in (FilesystemStore(tmp_path / "fs"), SqliteStore(tmp_path / "db.sqlite")):
        store.put(D1, "least-waste", 7, value)
        assert [r.body for r in store.iter_raw_entries()] == [body]
        assert store.writes == 1
        store.close()


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
    assert stats.total_bytes > 0
    store.close()


@pytest.mark.parametrize("kind", ["filesystem", "sqlite"])
def test_a_probe_on_another_thread_keeps_every_get_count(tmp_path, kind):
    """Regression: ``probe`` saved the hit and miss counters, called ``get``
    and wrote the saved values back, erasing every ``get`` another thread
    counted in between (``serve`` probes on an HTTP thread while its job
    thread reads)."""
    store = open_store(kind, tmp_path / ("s" if kind == "filesystem" else "s.sqlite"))
    store.put(D1, "least-waste", 7, 0.125)
    done = threading.Event()
    probed = []

    def probe_until_done() -> None:
        while not done.is_set():
            probed.append(store.probe(D1, "least-waste", 7))

    prober = threading.Thread(target=probe_until_done)
    prober.start()
    try:
        values = {store.get(D1, "least-waste", 7) for _ in range(3000)}
    finally:
        done.set()
        prober.join()
    assert values == {0.125} and set(probed) == {0.125}
    assert (store.hits, store.misses) == (3000, 0)
    store.close()


def test_stats_and_gc_reports_agree_between_backends(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    for store in (fs, sq):
        _fill(store)
    assert fs.stats() == sq.stats()

    # gc by digest version: same scan/removal accounting on both engines,
    # and --dry-run touches nothing.
    for store in (fs, sq):
        dry = store.gc(digest_version=DIGEST_VERSION, dry_run=True)
        assert (dry.scanned, dry.removed) == (3, 3)
        assert store.stats().entries == 3  # dry run removed nothing
    real_fs = fs.gc(digest_version=DIGEST_VERSION)
    real_sq = sq.gc(digest_version=DIGEST_VERSION)
    assert real_fs == real_sq
    assert len(fs) == len(sq) == 0
    assert fs.stats() == sq.stats()
    fs.close()
    sq.close()


@pytest.mark.parametrize("kind", ["filesystem", "sqlite"])
@pytest.mark.parametrize("older_than_s", [-1.0, -math.inf, math.inf, math.nan])
def test_gc_refuses_an_age_limit_it_cannot_mean(tmp_path, kind, older_than_s):
    """A negative age limit used to remove every entry and NaN none; both,
    and an infinite one, are refused, and every entry stays."""
    store = open_store(kind, tmp_path / ("s" if kind == "filesystem" else "s.sqlite"))
    _fill(store)
    for dry_run in (True, False):
        with pytest.raises(ConfigurationError, match="age limit"):
            store.gc(older_than_s=older_than_s, dry_run=dry_run)
    assert len(store) == 3
    assert store.probe(D1, "least-waste", 8) is not None
    store.close()


def test_sqlite_gc_older_than_and_orphan_sweep(tmp_path):
    """gc prunes aged entries.  It sweeps no orphans: the ``traces`` table
    older versions wrote is never touched, even rows whose entry is gone."""
    store = SqliteStore(tmp_path / "db.sqlite")
    _fill(store)
    # Age one entry far into the past; an older version left a trace
    # sidecar row for it and one for a key that has no entry at all.
    conn = sqlite3.connect(str(store.root))
    conn.execute(
        "UPDATE entries SET mtime = mtime - 864000 WHERE seed = 7 AND digest = ?",
        (D1,),
    )
    conn.execute(_OLD_TRACES_TABLE)
    for seed in (7, 99):
        conn.execute(
            "INSERT INTO traces VALUES (?, 'least-waste', ?, '2', '{}', 2, 0.0)", (D1, seed)
        )
    conn.commit()
    conn.close()
    report = store.gc(older_than_s=86400.0)
    assert report.scanned == 3
    assert report.removed == 1  # the aged entry alone
    assert store.probe(D1, "least-waste", 7) is None
    assert store.probe(D1, "least-waste", 8) is not None  # younger survivor
    store.close()
    conn = sqlite3.connect(str(tmp_path / "db.sqlite"))
    assert conn.execute("SELECT COUNT(*) FROM traces").fetchone()[0] == 2
    conn.close()


# ------------------------------------------------------------------ migration
def _records(store):
    return {(r.digest, r.strategy, r.seed): r.body for r in store.iter_raw_entries()}


def test_migration_roundtrip_is_byte_identical(tmp_path):
    fs = open_store("filesystem", tmp_path / "fs")
    _fill(fs)
    sq = open_store("sqlite", tmp_path / "db.sqlite")
    assert copy_store(fs, sq) == 3
    back = open_store("filesystem", tmp_path / "back")
    assert copy_store(sq, back) == 3

    assert _records(fs) == _records(sq) == _records(back)
    # Stronger than record equality: the round-tripped directory holds the
    # same relative entry files with the same bytes.
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


# ------------------------------------------------------- data of older versions
def _old_sidecar(digest: str, strategy: str, seed: int) -> str:
    return json.dumps(
        {"scenario": "old", "strategy": strategy, "seed": seed, "digest": digest,
         "categories": {}, "version": DIGEST_VERSION}
    )


def _add_old_filesystem_sidecars(root: Path) -> int:
    """A ``.trace`` file next to every entry, journaled as older versions did;
    one shard loses its journal, so stats also walks a shard with sidecars."""
    entries = sorted(root.glob("*/*/*/*.json"))
    for entry in entries:
        body = _old_sidecar(entry.parent.parent.name, entry.parent.name, int(entry.stem))
        sidecar = entry.with_suffix(".trace")
        sidecar.write_text(body)
        record = {"kind": "trace", "path": sidecar.relative_to(root).as_posix(),
                  "bytes": len(body), "version": DIGEST_VERSION}
        with open(entry.parents[2] / ".index.jsonl", "a") as journal:
            journal.write(json.dumps(record) + "\n")
    (entries[0].parents[2] / ".index.jsonl").unlink()
    return len(entries)


def _add_old_sqlite_traces(path: Path) -> int:
    conn = sqlite3.connect(str(path))
    conn.execute(_OLD_TRACES_TABLE)
    keys = conn.execute("SELECT digest, strategy, seed FROM entries").fetchall()
    for digest, strategy, seed in keys:
        body = _old_sidecar(digest, strategy, seed)
        conn.execute(
            "INSERT INTO traces VALUES (?, ?, ?, ?, ?, ?, ?)",
            (digest, strategy, seed, DIGEST_VERSION, body, len(body), time.time()),
        )
    conn.commit()
    conn.close()
    return len(keys)


@pytest.mark.parametrize("kind", ["filesystem", "sqlite"])
def test_sidecars_written_by_older_versions_are_ignored(tmp_path, capsys, kind):
    """Trace sidecars of older versions (``.trace`` files and journal records,
    or a ``traces`` table) are neither read nor removed: the store serves
    and reports its entries alone."""
    from repro.cli import main

    path = tmp_path / ("cache" if kind == "filesystem" else "cache.sqlite")
    store_args = ["--cache-dir", str(path), "--store", kind]
    assert main(["campaign", "--preset", "smoke", *store_args]) == 0
    capsys.readouterr()
    if kind == "filesystem":
        sidecars = _add_old_filesystem_sidecars(path)
    else:
        sidecars = _add_old_sqlite_traces(path)
    assert sidecars == 16

    assert main(["campaign", "--preset", "smoke", *store_args]) == 0
    assert "cache: 16 hit(s), 0 simulation(s)" in capsys.readouterr().out

    assert main(["cache", "stats", *store_args]) == 0
    stats = capsys.readouterr().out
    assert "entries      : 16" in stats and "trace" not in stats
    with open_store(kind, path) as store:
        assert store.stats().total_bytes == sum(len(r.body) for r in store.iter_raw_entries())

    assert main(["cache", "export", *store_args, "--to", str(tmp_path / "copy")]) == 0
    assert "copied 16 entries:" in capsys.readouterr().out

    assert main(
        ["trace", "--campaign", "smoke", "--scenario", "io=1,mtbf=short",
         "--strategy", "least-waste", *store_args]
    ) == 0
    assert "matches the cached cell value" in capsys.readouterr().out

    # The old data is still there, untouched.
    if kind == "filesystem":
        assert len(list(path.glob("*/*/*/*.trace"))) == 16
    else:
        conn = sqlite3.connect(str(path))
        assert conn.execute("SELECT COUNT(*) FROM traces").fetchone()[0] == 16
        conn.close()


@pytest.mark.parametrize("kind", ["filesystem", "sqlite"])
def test_an_entry_stamped_with_another_digest_version_is_a_miss(tmp_path, kind, tiny_config):
    """A value another digest version wrote under a current key may come
    from a different simulator: reading it as a miss costs one simulation,
    a hit would be silently wrong.  Entries older than version stamps
    still hit."""
    from repro.exec import ParallelRunner, config_digest, simulate_waste

    store = open_store(kind, tmp_path / ("s" if kind == "filesystem" else "s.sqlite"))
    config = tiny_config(horizon_s=0.25 * 86400.0)
    digest, strategy = config_digest(config), config.strategy
    stamped = json.loads(entry_body(digest, strategy, 5, 0.5))
    stamped["version"] = "3"
    store.put_raw_entry(digest, strategy, 5, json.dumps(stamped))
    store.put_raw_entry(digest, strategy, 6, '{"value": 0.25}')  # unversioned
    assert store.get(digest, strategy, 5) is None
    assert store.get(digest, strategy, 6) == 0.25

    runner = ParallelRunner(cache=store)
    assert runner.map_seeds(config, [5, 6]) == [simulate_waste(config, 5), 0.25]
    assert runner.stats.tasks_run == 1 and runner.stats.cache_hits == 1
    bodies = {record.seed: record.body for record in store.iter_raw_entries()}
    assert parse_entry(bodies[5]) == (simulate_waste(config, 5), DIGEST_VERSION)
    assert store.get(digest, strategy, 5) == simulate_waste(config, 5)
    store.close()
