"""Append-only JSONL journals: the lock-free index format of the result cache.

Each shard of a :class:`~repro.exec.cache.ResultCache` keeps an index
journal (``<shard>/.index.jsonl``, one record per entry write),
so ``cache stats`` reads one file per shard instead of stat-walking every
entry.  The format is deliberately minimal:

* one JSON object per line, appended with a single buffered write — on a
  POSIX filesystem ``O_APPEND`` writes of a short line are atomic, so any
  number of writers can append to the same shard journal without locks;
* a journal is *advisory*: it can lag the directory it indexes (a crash
  between an entry write and its journal append), so the cache treats it
  as an accelerator over a directory walk, never as the source of record;
* a torn final line (a writer died mid-append, or the reader raced an
  append) is treated as absent: :func:`read_records` only consumes
  newline-terminated lines and skips unparseable ones.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["append_record", "read_records"]


def append_record(path: Path, record: dict) -> None:
    """Append one record as a single JSONL line (parents created on demand).

    The line is serialised first and written with one call, so concurrent
    appenders on the same filesystem interleave whole lines, never bytes.
    """
    line = json.dumps(record, separators=(",", ":")) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


def read_records(path: Path) -> list[dict]:
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
