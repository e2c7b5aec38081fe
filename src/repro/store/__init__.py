"""Pluggable result stores: one warm cache, selectable storage engines.

The ``(config digest, strategy, seed) -> value`` cache every campaign,
spool worker, drill-down and ``serve`` job reads and fills.  The storage
engine behind it is chosen by name through an open registry
(:func:`register_store`), like execution backends and strategies.

Importing this package registers the built-in backends:

* ``"filesystem"`` — one JSON file per entry, the historical directory
  layout byte for byte (:class:`FilesystemStore`).
* ``"sqlite"`` — one WAL-mode, schema-versioned database file
  (:class:`SqliteStore`).

:func:`copy_store` migrates caches between any two backends losslessly in
either direction; :mod:`repro.service` puts an HTTP API in front of a
store so many users can share it without shell access.
"""

from repro.store.base import (
    DEFAULT_STORE,
    CacheStats,
    GcReport,
    RawRecord,
    ResultStore,
    entry_body,
    open_store,
    parse_entry,
    register_store,
    store_kinds,
)
from repro.store.filesystem import FilesystemStore
from repro.store.migrate import copy_store
from repro.store.sqlite import SCHEMA_VERSION, SqliteStore

__all__ = [
    "CacheStats",
    "DEFAULT_STORE",
    "FilesystemStore",
    "GcReport",
    "RawRecord",
    "ResultStore",
    "SCHEMA_VERSION",
    "SqliteStore",
    "copy_store",
    "entry_body",
    "open_store",
    "parse_entry",
    "register_store",
    "store_kinds",
]
