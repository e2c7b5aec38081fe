"""Pluggable result stores: one warm cache, selectable storage engines.

The serving-layer promotion of :class:`repro.exec.cache.ResultCache`: the
``(config digest, strategy, seed) -> value`` contract stays exactly as the
execution layer defined it, but the storage engine behind it is now chosen
by name through an open registry (:func:`register_store`), like execution
backends and strategies before it.

Importing this package registers the built-in backends:

* ``"filesystem"`` — the historical directory layout, byte-for-byte
  unchanged (:class:`FilesystemStore`).
* ``"sqlite"`` — one WAL-mode, schema-versioned database file
  (:class:`SqliteStore`).

:func:`copy_store` migrates caches between any two backends losslessly in
either direction; :mod:`repro.service` puts an HTTP API in front of a
store so many users can share it without shell access.
"""

from repro.store.base import (
    DEFAULT_STORE,
    ResultStore,
    open_store,
    register_store,
    store_kinds,
)
from repro.store.filesystem import FilesystemStore
from repro.store.migrate import MigrationReport, copy_store
from repro.store.sqlite import SCHEMA_VERSION, SqliteStore

__all__ = [
    "DEFAULT_STORE",
    "FilesystemStore",
    "MigrationReport",
    "ResultStore",
    "SCHEMA_VERSION",
    "SqliteStore",
    "copy_store",
    "open_store",
    "register_store",
    "store_kinds",
]
