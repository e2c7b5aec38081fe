"""Parallel Monte-Carlo execution.

:class:`ParallelRunner` dispatches the independent repetitions of a
Monte-Carlo experiment through a pluggable *execution backend*: each is
:func:`simulate_waste` of one configuration under one seed.  Because
:func:`repro.stats.montecarlo.derive_seeds` makes the i-th seed depend only
on the base seed and ``i``, repetitions are embarrassingly parallel: a
backend merely changes *where* each seed is simulated, never *what* is
simulated, so every backend returns bit-identical per-seed values.

Built-in backends (see :data:`BACKENDS`):

* ``"serial"`` — in-process, the default; bit-identical to the historical
  code path and the reference every other backend is tested against.
* ``"process"`` — a lazily created :class:`ProcessPoolExecutor` with chunked
  seed dispatch.
* ``"spool"`` — broker-less distributed execution through a filesystem work
  spool (:mod:`repro.distributed`): cache-miss seeds are enqueued as
  content-addressed task specs that carry their configuration as data,
  independent ``worker`` processes (possibly on other machines sharing the
  directory) simulate them into the shared result cache, and the submitter
  polls the cache until the batch is complete.  Requires ``spool_dir`` and
  a cache.

One dispatch path serves every entry point.
:meth:`ParallelRunner.run_configs` takes many *cells* — one configuration
over its own seeds, such as one (scenario, strategy) pair of a campaign —
probes the optional result store (:class:`repro.store.ResultStore`) for
every seed of every cell, and hands all remaining seeds to the backend in
**one** :class:`SeedBatch`.  :meth:`~ParallelRunner.map_seeds` is its
one-cell case.  Seeds already cached are served from the cache, and seeds
of different cells that share a ``(config digest, strategy, seed)`` key
are simulated once, so growing ``num_runs`` on an existing sweep only pays
for the new seeds.

**Backend contract.**  New backends plug in through
:func:`register_backend`: a factory taking the runner and returning an
:class:`ExecutionBackend`.  Its ``run(batch)`` computes every entry of
:attr:`SeedBatch.entries` — each carries a batch-wide ``index``, its
``seed`` and its :class:`SeedCell` (config, label and cache key) — and
returns ``{index -> simulate_waste(config, seed)}``.  A backend that only
reads :attr:`SeedBatch.pending`, the ``(index, seed)`` pairs, works for
one-cell batches.  A backend should hand values to
:meth:`SeedBatch.deliver` as they finish: the runner writes each value to
the cache *before* it emits the :class:`ProgressEvent` that counts it, so
an interrupted campaign keeps every seed it reported.  Values that ``run``
only returns are delivered when it returns.  Results must be bit-identical
to the serial backend's, completion may come in any order, and running a
seed twice must be harmless (recorded in ROADMAP.md).
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.digest import config_digest
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation

if TYPE_CHECKING:  # imported by ProcessBackend.run: serial runs never load it
    from concurrent.futures import ProcessPoolExecutor

    from repro.store.base import ResultStore

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ParallelRunner",
    "PendingSeed",
    "ProgressEvent",
    "RunnerStats",
    "SeedBatch",
    "SeedCell",
    "backend_names",
    "register_backend",
    "simulate_waste",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification for one cell of a dispatch.

    ``completed`` counts both simulated and cache-served seeds; ``cached``
    counts only the latter, so ``completed - cached`` seeds were actually
    simulated so far.  Every cell ends in exactly one event with
    ``completed == total``.
    """

    label: str
    completed: int
    total: int
    cached: int = 0


@dataclass
class RunnerStats:
    """Cumulative execution counters of one :class:`ParallelRunner`.

    ``tasks_run`` counts seeds simulated by this process; ``cache_hits``
    counts seeds served from the cache, including seeds another cell of
    the same dispatch computed; ``remote_seeds`` counts seeds a distributed
    backend observed being completed by remote workers (they appear in
    neither ``tasks_run`` nor ``cache_hits``).
    """

    tasks_run: int = 0
    cache_hits: int = 0
    remote_seeds: int = 0

    def snapshot(self) -> "RunnerStats":
        """Independent copy (convenient for before/after comparisons)."""
        return replace(self)


def simulate_waste(config: SimulationConfig, seed: int) -> float:
    """The waste ratio of one simulation of ``config`` under ``seed``: the
    one per-seed task every backend runs."""
    return float(Simulation(config.with_seed(seed)).run().waste_ratio)


def _run_chunk(config: SimulationConfig, seeds: Sequence[int]) -> list[float]:
    """Pool-worker helper: simulate one chunk of seeds, in order."""
    return [simulate_waste(config, seed) for seed in seeds]


# --------------------------------------------------------------- batches
@dataclass(frozen=True, eq=False)
class SeedCell:
    """The shared part of one cell's batch entries.

    ``cache_key`` is the ``(config digest, strategy)`` pair of the cell.
    Cells compare by identity, so they group and key dictionaries cheaply.
    """

    config: SimulationConfig
    label: str
    cache_key: tuple[str, str]


@dataclass(frozen=True)
class PendingSeed:
    """One seed still to compute: its batch-wide index and its cell."""

    index: int
    seed: int
    cell: SeedCell


@dataclass(frozen=True)
class SeedBatch:
    """Every pending seed of one dispatch, across all of its cells.

    ``entries`` come in dispatch order: cells as the caller listed them,
    each cell's seeds in seed order.  Entry indexes are unique across the
    whole batch.  ``deliver`` records values as they finish (see the module
    docstring's backend contract).
    """

    entries: tuple[PendingSeed, ...]
    deliver: Callable[[Mapping[int, float]], None] = field(compare=False, repr=False)

    @property
    def pending(self) -> tuple[tuple[int, int], ...]:
        """The ``(index, seed)`` pairs of every entry."""
        return tuple((entry.index, entry.seed) for entry in self.entries)

    def by_cell(self) -> list[tuple[SeedCell, list[PendingSeed]]]:
        """The entries grouped by cell, in dispatch order."""
        return [
            (cell, list(group))
            for cell, group in itertools.groupby(self.entries, key=attrgetter("cell"))
        ]


class _Dispatch:
    """One dispatch: store probes, shared keys, write-back and progress."""

    def __init__(
        self, runner: "ParallelRunner", cells: Sequence[tuple[SimulationConfig, Sequence[int], str]]
    ) -> None:
        self.runner = runner
        self.cells: list[SeedCell] = []
        self.spans: list[range] = []  # batch indexes of each cell
        self.completed: list[int] = []
        self.cached: list[int] = []
        self.seeds: list[int] = []  # by batch index
        self.cell_of: list[int] = []  # by batch index: position in self.cells
        self.values: dict[int, float] = {}
        self.entries: list[PendingSeed] = []
        #: Batch index of a pending entry -> later entries with its store key.
        self.followers: dict[int, list[int]] = {}
        self.write_back = False
        store = runner.cache
        first: dict[tuple[str, str, int], int] = {}
        for position, (config, seeds, label) in enumerate(cells):
            digest, strategy = cache_key = (config_digest(config), config.strategy)
            cell = SeedCell(config=config, label=label, cache_key=cache_key)
            start, hits = len(self.seeds), 0
            for seed in seeds:
                index = len(self.seeds)
                self.seeds.append(seed)
                self.cell_of.append(position)
                if store is not None:
                    value = store.get(digest, strategy, int(seed))
                    if value is not None:
                        self.values[index] = value
                        hits += 1
                        continue
                    primary = first.setdefault((digest, strategy, int(seed)), index)
                    if primary != index:
                        self.followers.setdefault(primary, []).append(index)
                        continue
                self.entries.append(PendingSeed(index=index, seed=seed, cell=cell))
            self.cells.append(cell)
            self.spans.append(range(start, len(self.seeds)))
            self.completed.append(hits)
            self.cached.append(hits)
            runner.stats.cache_hits += hits
            if hits:
                self._emit(position)

    def deliver(self, values: Mapping[int, float]) -> None:
        """Record finished values: store each one, then report progress."""
        fresh = {index: value for index, value in values.items() if index not in self.values}
        if not fresh:
            return
        runner = self.runner
        store = runner.cache
        if self.write_back and store is not None:
            for index, value in fresh.items():
                digest, strategy = self.cells[self.cell_of[index]].cache_key
                store.put(digest, strategy, int(self.seeds[index]), value)
        touched: set[int] = set()
        for index, value in fresh.items():
            self.values[index] = value
            self.completed[self.cell_of[index]] += 1
            touched.add(self.cell_of[index])
            # Entries sharing the key read the value back from the store.
            for follower in self.followers.get(index, ()):
                self.values[follower] = value
                self.completed[self.cell_of[follower]] += 1
                self.cached[self.cell_of[follower]] += 1
                runner.stats.cache_hits += 1
                touched.add(self.cell_of[follower])
        for position in sorted(touched):
            self._emit(position)

    def _emit(self, position: int) -> None:
        if self.runner.progress is not None:
            self.runner.progress(
                ProgressEvent(
                    label=self.cells[position].label,
                    completed=self.completed[position],
                    total=len(self.spans[position]),
                    cached=self.cached[position],
                )
            )

    def results(self) -> list[list[float]]:
        """Every cell's values, in seed order."""
        return [[self.values[index] for index in span] for span in self.spans]


# --------------------------------------------------------------- backends
class ExecutionBackend:
    """Base class of :class:`ParallelRunner` execution backends.

    Subclasses implement :meth:`run`; backends that write computed values
    into the runner's cache themselves (distributed backends whose workers
    own the cache writes) set :attr:`persists_results` so the runner skips
    its own write-back.
    """

    #: True when ``run`` already persisted the computed values to the
    #: runner's cache (the runner then skips its write-back).
    persists_results = False

    def __init__(self, runner: "ParallelRunner") -> None:
        self.runner = runner

    def run(self, batch: SeedBatch) -> dict[int, float]:
        """Compute every pending seed; return ``{batch index -> value}``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """In-process execution: cells in dispatch order, seeds in seed order."""

    def run(self, batch: SeedBatch) -> dict[int, float]:
        computed: dict[int, float] = {}
        for entry in batch.entries:
            computed[entry.index] = simulate_waste(entry.cell.config, entry.seed)
            self.runner.stats.tasks_run += 1
            batch.deliver({entry.index: computed[entry.index]})
        return computed


class ProcessBackend(ExecutionBackend):
    """A lazily created, batch-spanning :class:`ProcessPoolExecutor`.

    The whole batch is split into about four chunks per worker over one
    pool, and no chunk mixes cells.  The pool is reused across batches so a
    sweep pays worker startup once.
    """

    def __init__(self, runner: "ParallelRunner") -> None:
        super().__init__(runner)
        self._pool: ProcessPoolExecutor | None = None

    def run(self, batch: SeedBatch) -> dict[int, float]:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        runner = self.runner
        pending = batch.entries
        workers = runner.workers or os.cpu_count() or 1
        chunk_size = max(1, math.ceil(len(pending) / (min(workers, len(pending)) * 4)))
        chunks = [
            entries[start : start + chunk_size]
            for _, entries in batch.by_cell()
            for start in range(0, len(entries), chunk_size)
        ]
        computed: dict[int, float] = {}
        if self._pool is None:
            # Load numpy before the pool forks, so every worker inherits it
            # instead of importing it on its first seed.
            import numpy  # noqa: F401

            self._pool = ProcessPoolExecutor(max_workers=workers)
        futures = {
            self._pool.submit(
                _run_chunk, chunk[0].cell.config, [entry.seed for entry in chunk]
            ): chunk
            for chunk in chunks
        }
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = futures[future]
                values = {entry.index: value for entry, value in zip(chunk, future.result())}
                runner.stats.tasks_run += len(chunk)
                batch.deliver(values)
                computed.update(values)
        return computed

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures makes an interrupted campaign abandon queued
            # chunks instead of draining them before exiting.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def _make_spool_backend(runner: "ParallelRunner") -> ExecutionBackend:
    """Factory for the distributed spool backend (imported lazily so the
    core runner has no import-time dependency on :mod:`repro.distributed`)."""
    from repro.distributed.submit import SpoolBackend

    return SpoolBackend(runner)


#: Registry of execution backends: name -> factory(runner) -> backend.
_BACKEND_FACTORIES: dict[str, Callable[["ParallelRunner"], ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "spool": _make_spool_backend,
}


def backend_names() -> tuple[str, ...]:
    """Names of every currently registered execution backend."""
    return tuple(_BACKEND_FACTORIES)


def register_backend(
    name: str,
    factory: Callable[["ParallelRunner"], ExecutionBackend],
    *,
    replace_existing: bool = False,
) -> None:
    """Register an execution backend under ``name``.

    ``factory`` receives the owning :class:`ParallelRunner` and returns an
    :class:`ExecutionBackend`.  Registering an existing name requires
    ``replace_existing=True`` so typos don't silently shadow built-ins.
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    if name in _BACKEND_FACTORIES and not replace_existing:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass replace_existing=True to override"
        )
    _BACKEND_FACTORIES[name] = factory


#: Names of the backends registered at import time.  Backends registered
#: later through :func:`register_backend` appear in :func:`backend_names`.
BACKENDS: tuple[str, ...] = backend_names()


@dataclass
class ParallelRunner:
    """Simulates configurations over seeds through a pluggable backend.

    Attributes
    ----------
    backend:
        Name of a registered execution backend: ``"serial"`` (default; runs
        in-process), ``"process"`` (ProcessPoolExecutor) or ``"spool"``
        (filesystem work spool drained by external workers; requires
        ``spool_dir`` and a cache).
    workers:
        Worker-process count for the ``"process"`` backend; defaults to the
        machine's CPU count.  Ignored by the serial backend.
    cache:
        Optional result store (e.g. ``open_store(kind, path)``) consulted
        for every seed of every cell.  Mandatory for the spool
        backend, where it is the channel workers deliver results through.
    spool_dir:
        Work-spool directory shared with the workers (spool backend only).
    spool_poll_s / spool_lease_ttl_s / spool_timeout_s:
        Spool-backend tuning: cache poll interval, lease expiry after which
        a crashed worker's task is reclaimed, and an optional timeout that
        aborts the wait after that many seconds in which no outstanding
        seed was delivered (``None`` waits indefinitely).
    progress:
        Optional callback invoked with a :class:`ProgressEvent` for each
        cell a delivery advanced — after each seed (serial), chunk
        (process) or poll that delivered seeds (spool) — and once up-front
        for each cell that starts with cache hits.
    """

    backend: str = "serial"
    workers: int | None = None
    cache: ResultStore | None = None
    spool_dir: str | os.PathLike[str] | None = None
    spool_poll_s: float = 0.1
    spool_lease_ttl_s: float = 60.0
    spool_timeout_s: float | None = None
    progress: Callable[[ProgressEvent], None] | None = None
    stats: RunnerStats = field(default_factory=RunnerStats)
    #: Lazily created backend instance, reused across batches so backends
    #: can keep expensive state (worker pools, spool handles) alive.
    _backend_impl: ExecutionBackend | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.backend not in _BACKEND_FACTORIES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {', '.join(backend_names())}"
            )
        if self.workers is not None and self.workers <= 0:
            raise ConfigurationError("workers must be positive")
        durations = {"spool_poll_s": self.spool_poll_s, "spool_lease_ttl_s": self.spool_lease_ttl_s}
        if self.spool_timeout_s is not None:  # None waits indefinitely
            durations["spool_timeout_s"] = self.spool_timeout_s
        for name, value in durations.items():
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be a finite positive number of seconds, got {value}"
                )
        if self.backend == "spool":
            if self.spool_dir is None:
                raise ConfigurationError(
                    "the spool backend needs spool_dir: the work-spool directory "
                    "shared with the worker processes"
                )
            if self.cache is None:
                raise ConfigurationError(
                    "the spool backend needs a result store (cache) "
                    "shared with the workers; it is the channel results are "
                    "delivered through"
                )

    # ------------------------------------------------------------ execution
    def _backend(self) -> ExecutionBackend:
        if self._backend_impl is None:
            self._backend_impl = _BACKEND_FACTORIES[self.backend](self)
        return self._backend_impl

    def run_configs(
        self, cells: Sequence[tuple[SimulationConfig, Sequence[int], str]]
    ) -> list[list[float]]:
        """Simulate each ``(config, seeds, label)`` cell in one dispatch.

        Returns the waste ratios of every cell, in cell and seed order.
        Each cell's cache key is its configuration's content digest and its
        canonical strategy-spec string (``config.strategy`` is already
        normalised), so identical cells across sweeps — including two
        spellings of the same parameterized strategy — share cached values.
        """
        dispatch = _Dispatch(self, cells)
        if dispatch.entries:
            backend = self._backend()
            dispatch.write_back = not backend.persists_results
            dispatch.deliver(backend.run(SeedBatch(tuple(dispatch.entries), dispatch.deliver)))
        return dispatch.results()

    def map_seeds(
        self, config: SimulationConfig, seeds: Sequence[int], *, label: str | None = None
    ) -> list[float]:
        """Simulate ``config`` once per seed and return the waste ratios.

        The one-cell case of :meth:`run_configs`; ``label`` defaults to the
        strategy.
        """
        (values,) = self.run_configs(
            [(config, seeds, label if label is not None else config.strategy)]
        )
        return values

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the backend's resources (idempotent; a later batch restarts)."""
        if self._backend_impl is not None:
            self._backend_impl.close()
            self._backend_impl = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
