"""Parallel Monte-Carlo execution.

:class:`ParallelRunner` dispatches the independent repetitions of a
Monte-Carlo experiment through a pluggable *execution backend*.  Because
:func:`repro.stats.montecarlo.derive_seeds` makes the i-th seed depend only
on the base seed and ``i``, repetitions are embarrassingly parallel: a
backend merely changes *where* each seed is simulated, never *what* is
simulated, so every backend returns bit-identical per-seed values.

Built-in backends (see :data:`BACKENDS`):

* ``"serial"`` — in-process, the default; bit-identical to the historical
  code path and the reference every other backend is tested against.
* ``"process"`` — a lazily created :class:`ProcessPoolExecutor` with chunked
  seed dispatch; tasks must be picklable.
* ``"spool"`` — broker-less distributed execution through a filesystem work
  spool (:mod:`repro.distributed`): cache-miss seeds are enqueued as
  content-addressed task specs, independent ``worker`` processes (possibly
  on other machines sharing the directory) simulate them into the shared
  result cache, and the submitter polls the cache until the batch is
  complete.  Requires ``spool_dir`` and a cache.

New backends plug in through :func:`register_backend`: a factory taking the
runner and returning an :class:`ExecutionBackend` whose ``run`` receives a
:class:`SeedBatch` and returns ``{batch index -> value}``.  The contract
(recorded in ROADMAP.md) is bit-identical results, order-independent
completion, and idempotent re-execution.

The runner optionally consults a :class:`repro.exec.cache.ResultCache`
before dispatching: seeds whose ``(config digest, strategy, seed)`` key is
already on disk are served from the cache and only the remaining seeds are
dispatched.  Growing ``num_runs`` on an existing sweep therefore only pays
for the new seeds.

Tasks submitted to the ``"process"`` and ``"spool"`` backends must be
picklable — module-level functions or instances of module-level classes such
as :class:`WasteRatioTask`; lambdas and closures only work on the serial
backend.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.digest import config_digest
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation

if TYPE_CHECKING:  # imported by ProcessBackend.run: serial runs never load it
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ParallelRunner",
    "ProgressEvent",
    "RunnerStats",
    "SeedBatch",
    "WasteRatioTask",
    "backend_names",
    "register_backend",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification for a batch of Monte-Carlo repetitions.

    ``completed`` counts both simulated and cache-served seeds; ``cached``
    counts only the latter, so ``completed - cached`` seeds were actually
    simulated so far.
    """

    label: str
    completed: int
    total: int
    cached: int = 0


@dataclass
class RunnerStats:
    """Cumulative execution counters of one :class:`ParallelRunner`.

    ``tasks_run`` counts seeds simulated by this process; ``remote_seeds``
    counts seeds a distributed backend observed being completed by remote
    workers (they appear in neither ``tasks_run`` nor ``cache_hits``).
    """

    tasks_run: int = 0
    cache_hits: int = 0
    batches: int = 0
    remote_seeds: int = 0

    def snapshot(self) -> "RunnerStats":
        """Independent copy (convenient for before/after comparisons)."""
        return replace(self)


@dataclass(frozen=True)
class WasteRatioTask:
    """Picklable per-seed task: simulate one config variant, return its waste.

    The stored configuration acts as a template; the per-repetition seed is
    substituted at call time.  Instances are sent to worker processes, so
    the template must remain picklable (which every
    :class:`~repro.simulation.config.SimulationConfig` of frozen dataclasses
    is).
    """

    config: SimulationConfig

    def __call__(self, seed: int) -> float:
        return Simulation(self.config.with_seed(seed)).run().waste_ratio


def _run_chunk(task: Callable[[int], float], seeds: Sequence[int]) -> list[float]:
    """Worker-side helper: evaluate ``task`` on a chunk of seeds, in order."""
    return [float(task(seed)) for seed in seeds]


# --------------------------------------------------------------- backends
@dataclass(frozen=True)
class SeedBatch:
    """One ``map_seeds`` batch handed to an execution backend.

    ``pending`` holds the ``(result index, seed)`` pairs still to be
    computed after cache hits were subtracted; ``total``/``cached`` describe
    the whole batch so backends can emit accurate progress events.
    ``cache_key`` is the ``(config digest, strategy)`` pair of the batch, or
    ``None`` for ad-hoc callables with no content digest.
    """

    task: Callable[[int], float]
    pending: tuple[tuple[int, int], ...]
    label: str
    total: int
    cached: int
    cache_key: tuple[str, str] | None = None


class ExecutionBackend:
    """Base class of :class:`ParallelRunner` execution backends.

    Subclasses implement :meth:`run`; backends that write computed values
    into the runner's cache themselves (distributed backends whose workers
    own the cache writes) set :attr:`persists_results` so the runner skips
    its own write-back loop.
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
    """In-process execution, bit-identical to the historical code path."""

    def run(self, batch: SeedBatch) -> dict[int, float]:
        runner = self.runner
        computed: dict[int, float] = {}
        for index, seed in batch.pending:
            computed[index] = float(batch.task(seed))
            runner.stats.tasks_run += 1
            runner._emit(batch.label, batch.cached + len(computed), batch.total, batch.cached)
        return computed


class ProcessBackend(ExecutionBackend):
    """A lazily created, batch-spanning :class:`ProcessPoolExecutor`.

    The pool is reused across batches so a sweep pays worker startup once,
    not once per cell.
    """

    def __init__(self, runner: "ParallelRunner") -> None:
        super().__init__(runner)
        self._pool: ProcessPoolExecutor | None = None

    def run(self, batch: SeedBatch) -> dict[int, float]:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        runner = self.runner
        pending = list(batch.pending)
        workers = runner.workers or os.cpu_count() or 1
        chunk_size = runner.chunk_size or max(
            1, math.ceil(len(pending) / (min(workers, len(pending)) * 4))
        )
        chunks = [pending[start : start + chunk_size] for start in range(0, len(pending), chunk_size)]
        computed: dict[int, float] = {}
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        futures = {
            self._pool.submit(_run_chunk, batch.task, [seed for _, seed in chunk]): chunk
            for chunk in chunks
        }
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = futures[future]
                for (index, _), value in zip(chunk, future.result()):
                    computed[index] = value
                runner.stats.tasks_run += len(chunk)
                runner._emit(batch.label, batch.cached + len(computed), batch.total, batch.cached)
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
    """Executes per-seed experiment tasks through a pluggable backend.

    Attributes
    ----------
    backend:
        Name of a registered execution backend: ``"serial"`` (default; runs
        in-process, supports arbitrary callables), ``"process"``
        (ProcessPoolExecutor; tasks must be picklable) or ``"spool"``
        (filesystem work spool drained by external workers; requires
        ``spool_dir`` and a cache).
    workers:
        Worker-process count for the ``"process"`` backend; defaults to the
        machine's CPU count.  Ignored by the serial backend.
    chunk_size:
        Seeds dispatched per pool submission (process) or per spooled task
        spec (spool); defaults to roughly four chunks per worker, which
        balances load against IPC overhead.
    cache / cache_dir:
        Optional :class:`ResultCache` (or a directory path from which one is
        built) consulted for batches that provide a cache key.  Mandatory
        for the spool backend, where it is the channel workers deliver
        results through.
    spool_dir:
        Work-spool directory shared with the workers (spool backend only).
    spool_poll_s / spool_lease_ttl_s / spool_timeout_s:
        Spool-backend tuning: cache poll interval, lease expiry after which
        a crashed worker's task is reclaimed, and an optional overall
        timeout per batch (``None`` waits indefinitely).
    progress:
        Optional callback invoked with a :class:`ProgressEvent` after each
        completed seed (serial), chunk (process) or poll progress (spool),
        and once up-front when a batch starts with cache hits.
    """

    backend: str = "serial"
    workers: int | None = None
    chunk_size: int | None = None
    cache: ResultCache | None = None
    cache_dir: str | os.PathLike[str] | None = None
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
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if self.spool_poll_s <= 0:
            raise ConfigurationError("spool_poll_s must be positive")
        if self.spool_lease_ttl_s <= 0:
            raise ConfigurationError("spool_lease_ttl_s must be positive")
        if self.spool_timeout_s is not None and self.spool_timeout_s <= 0:
            raise ConfigurationError("spool_timeout_s must be positive (or None to wait)")
        if self.cache is None and self.cache_dir is not None:
            self.cache = ResultCache(self.cache_dir)
        if self.backend == "spool":
            if self.spool_dir is None:
                raise ConfigurationError(
                    "the spool backend needs spool_dir: the work-spool directory "
                    "shared with the worker processes"
                )
            if self.cache is None:
                raise ConfigurationError(
                    "the spool backend needs a result cache (cache or cache_dir) "
                    "shared with the workers; it is the channel results are "
                    "delivered through"
                )

    # ------------------------------------------------------------ execution
    def _backend(self) -> ExecutionBackend:
        if self._backend_impl is None:
            self._backend_impl = _BACKEND_FACTORIES[self.backend](self)
        return self._backend_impl

    def map_seeds(
        self,
        task: Callable[[int], float],
        seeds: Sequence[int],
        *,
        label: str = "",
        cache_key: tuple[str, str] | None = None,
    ) -> list[float]:
        """Evaluate ``task(seed)`` for every seed, preserving seed order.

        ``cache_key`` is the ``(config digest, strategy)`` pair under which
        per-seed values are cached; when omitted (or when the runner has no
        cache) every seed is simulated.
        """
        seeds = list(seeds)
        total = len(seeds)
        results: dict[int, float] = {}
        if self.cache is not None and cache_key is not None:
            digest, strategy = cache_key
            for index, seed in enumerate(seeds):
                value = self.cache.get(digest, strategy, int(seed))
                if value is not None:
                    results[index] = value
        cached = len(results)
        self.stats.cache_hits += cached
        self.stats.batches += 1
        pending = tuple((index, seed) for index, seed in enumerate(seeds) if index not in results)
        if cached and self.progress is not None:
            self.progress(ProgressEvent(label=label, completed=cached, total=total, cached=cached))
        if pending:
            backend = self._backend()
            computed = backend.run(
                SeedBatch(
                    task=task,
                    pending=pending,
                    label=label,
                    total=total,
                    cached=cached,
                    cache_key=cache_key,
                )
            )
            if (
                not backend.persists_results
                and self.cache is not None
                and cache_key is not None
            ):
                digest, strategy = cache_key
                for index, value in computed.items():
                    self.cache.put(digest, strategy, int(seeds[index]), value)
            results.update(computed)
        return [results[index] for index in range(total)]

    def run_config(
        self,
        config: SimulationConfig,
        seeds: Sequence[int],
        *,
        label: str | None = None,
    ) -> list[float]:
        """Simulate ``config`` once per seed and return the waste ratios.

        This is the cache-aware entry point used by the experiment harness:
        the cache key is derived from the configuration's content digest and
        its canonical strategy-spec string (``config.strategy`` is already
        normalised), so identical cells across sweeps — including two
        spellings of the same parameterized strategy — share cached values.
        """
        return self.map_seeds(
            WasteRatioTask(config),
            seeds,
            label=label if label is not None else config.strategy,
            cache_key=(config_digest(config), config.strategy),
        )

    # ------------------------------------------------------------ progress
    def _emit(self, label: str, completed: int, total: int, cached: int) -> None:
        if self.progress is not None:
            self.progress(ProgressEvent(label=label, completed=completed, total=total, cached=cached))

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
