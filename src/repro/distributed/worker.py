"""The spool worker: claim a batch -> simulate -> cache -> ack, forever.

:class:`SpoolWorker` is the engine behind the ``coopckpt worker`` CLI
daemon.  Each loop iteration claims a *batch* of task specs from the shared
:class:`~repro.distributed.spool.WorkSpool` (one directory rename claims up
to ``batch_size`` tasks from a shard), simulates their seeds, writes every
value into the shared :class:`~repro.store.ResultStore` (the delivery
channel the submitter polls) and acks each task.  A spec whose
configuration does not hash to its cache key fails before any seed is
simulated.  While a batch is in
flight a background thread heartbeats its lease, so long simulations never
look abandoned; if the worker dies anyway, the lease expires and a peer
reclaims the batch.

Workers are fully independent: run any number of them against the same
spool/cache pair, on one machine or many, start them before or after the
submitter, kill and restart them freely.  Task failures are recorded in
the spool (``failed/<shard>/<id>.json``) and never crash the worker;
Ctrl-C releases the unfinished remainder of the batch before exiting.

Observability: :meth:`SpoolWorker.metrics` returns a JSON-ready snapshot
(claims/s, cache-hit rate, lease reclaims, heartbeat age, in-flight batch)
— the payload served by ``coopckpt worker --metrics-port`` — and the
optional ``event_log`` sink receives one structured dict per worker event
for JSON logging.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.distributed.spool import MAX_INTERVAL_S, ClaimedBatch, WorkSpool
from repro.distributed.tasks import TaskSpec
from repro.errors import ConfigurationError, SpoolError
from repro.exec import digest as exec_digest
from repro.exec.runner import simulate_waste
from repro.store.base import ResultStore

__all__ = ["SpoolWorker", "WorkerStats", "check_worker_settings", "default_worker_id"]


def default_worker_id() -> str:
    """``<host>-<pid>``: unique enough to attribute claims in a shared spool."""
    return f"{socket.gethostname()}-{os.getpid()}"


def check_worker_settings(
    *,
    poll_interval_s: float | None = None,
    batch_size: int | None = None,
    max_tasks: int | None = None,
    idle_timeout_s: float | None = None,
) -> None:
    """Refuse worker settings that cannot run, naming the field (``None``
    passes); the one home of these rules, for :class:`SpoolWorker` and
    ``coopckpt worker``.

    A NaN or huge poll interval breaks ``time.sleep``, a NaN idle timeout
    never stops the worker, and a task limit or batch size of 0 does nothing.
    """
    if poll_interval_s is not None and not 0 < poll_interval_s <= MAX_INTERVAL_S:
        raise ConfigurationError(
            f"poll_interval_s must be a number of seconds in (0, {MAX_INTERVAL_S:g}], "
            f"got {poll_interval_s}"
        )
    if idle_timeout_s is not None and not 0 <= idle_timeout_s < math.inf:
        raise ConfigurationError(
            f"idle_timeout_s must be a finite number of seconds >= 0, got {idle_timeout_s}"
        )
    if max_tasks is not None and max_tasks < 1:
        raise ConfigurationError(f"max_tasks must be at least 1, got {max_tasks}")
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be at least 1, got {batch_size}")


@dataclass
class WorkerStats:
    """Cumulative counters of one worker's lifetime."""

    tasks_done: int = 0
    tasks_failed: int = 0
    seeds_simulated: int = 0
    polls: int = 0
    batches_claimed: int = 0
    cache_hits: int = 0
    lease_reclaims: int = 0

    def describe(self) -> str:
        return (
            f"{self.tasks_done} task(s) done, {self.seeds_simulated} seed(s) "
            f"simulated, {self.tasks_failed} failure(s)"
        )


@dataclass
class SpoolWorker:
    """One resumable spool-draining worker.

    Attributes
    ----------
    spool / cache:
        The shared work spool and result store (both typically on a shared
        filesystem).  Any :class:`~repro.store.ResultStore` works — the
        worker only calls ``probe`` and ``put`` — so results can
        be delivered through the classic directory cache or a SQLite store
        (``coopckpt worker --store sqlite``).
    worker_id:
        Identity recorded in claim metadata and completion markers.
    poll_interval_s:
        Sleep between claim attempts when the spool has no pending work, in
        ``(0, 86400]`` seconds.
    batch_size:
        Upper bound on tasks claimed per shard rename (at least 1); a
        claimed shard's excess is handed straight back, so larger batches
        amortise renames without starving peers.
    max_tasks:
        Stop after completing this many tasks (at least 1; ``None`` =
        unbounded); useful for tests and for rolling worker restarts.
    stop_event:
        Optional external off-switch checked between tasks; lets an
        embedding process (tests, a supervisor thread) stop the loop
        without signals.
    log:
        Optional sink for one-line progress messages (e.g. ``print``).
    event_log:
        Optional sink for structured events: one dict per message with
        ``ts``/``worker``/``event`` keys plus event-specific fields (the
        ``--log-json`` CLI mode serialises these as JSON lines).
    """

    spool: WorkSpool
    cache: ResultStore
    worker_id: str = field(default_factory=default_worker_id)
    poll_interval_s: float = 0.5
    batch_size: int = 8
    max_tasks: int | None = None
    stop_event: threading.Event | None = None
    log: Callable[[str], None] | None = None
    event_log: Callable[[dict], None] | None = None
    stats: WorkerStats = field(default_factory=WorkerStats)

    def __post_init__(self) -> None:
        check_worker_settings(
            poll_interval_s=self.poll_interval_s,
            batch_size=self.batch_size,
            max_tasks=self.max_tasks,
        )
        self._started_at = time.time()
        self._last_beat: float | None = None
        self._in_flight: dict | None = None

    # ------------------------------------------------------------ logging
    def _say(self, message: str, *, event: str = "info", **fields: object) -> None:
        if self.log is not None:
            self.log(f"[{self.worker_id}] {message}")
        if self.event_log is not None:
            self.event_log(
                {
                    "ts": time.time(),
                    "worker": self.worker_id,
                    "event": event,
                    "msg": message,
                    **fields,
                }
            )

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    # ------------------------------------------------------------ metrics
    def metrics(self) -> dict:
        """JSON-ready observability snapshot (the ``--metrics-port`` payload).

        Safe to call from another thread while the worker runs: every field
        is read from monotonic counters or atomically swapped references.
        """
        now = time.time()
        uptime = max(now - self._started_at, 1e-9)
        stats = self.stats
        probes = stats.cache_hits + stats.seeds_simulated
        in_flight = self._in_flight
        return {
            "worker_id": self.worker_id,
            "uptime_s": round(uptime, 3),
            "tasks_done": stats.tasks_done,
            "tasks_failed": stats.tasks_failed,
            "seeds_simulated": stats.seeds_simulated,
            "batches_claimed": stats.batches_claimed,
            "claims_per_s": round(stats.batches_claimed / uptime, 6),
            "tasks_per_s": round(stats.tasks_done / uptime, 6),
            "cache_hits": stats.cache_hits,
            "cache_hit_rate": round(stats.cache_hits / probes, 6) if probes else 0.0,
            "lease_reclaims": stats.lease_reclaims,
            "polls": stats.polls,
            "in_flight_batch": dict(in_flight) if in_flight else None,
            "heartbeat_age_s": (
                round(now - self._last_beat, 3) if self._last_beat is not None else None
            ),
        }

    # ------------------------------------------------------------ main loop
    def run(self, *, drain: bool = False, idle_timeout_s: float | None = None) -> WorkerStats:
        """Process tasks until stopped.

        ``drain=True`` exits once the spool is fully drained (no pending or
        claimed tasks) — the mode CI and tests use.  ``idle_timeout_s`` exits
        after that long without claiming anything, whether or not peers still
        hold claims; it must be a finite number of seconds >= 0.  With
        neither, the worker runs until ``stop_event`` (or ``max_tasks``/Ctrl-C).
        """
        check_worker_settings(idle_timeout_s=idle_timeout_s)
        idle_since: float | None = None
        while not self._stopped():
            if self.max_tasks is not None and self.stats.tasks_done >= self.max_tasks:
                break
            self.stats.lease_reclaims += len(self.spool.reclaim_expired())
            limit = self.batch_size
            if self.max_tasks is not None:
                limit = min(limit, max(1, self.max_tasks - self.stats.tasks_done))
            batch = self.spool.claim_batch(self.worker_id, limit=limit)
            if batch is None:
                self.stats.polls += 1
                now = time.time()
                if drain and self.spool.idle():
                    break
                if idle_timeout_s is not None:
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= idle_timeout_s:
                        break
                time.sleep(self.poll_interval_s)
                continue
            idle_since = None
            self.process_batch(batch)
        self._say(f"exiting: {self.stats.describe()}", event="exit")
        return self.stats

    # ------------------------------------------------------------ one batch
    def process_batch(self, batch: ClaimedBatch) -> int:
        """Simulate one claimed batch; returns how many tasks succeeded.

        One background thread heartbeats the whole batch's lease, so the
        per-task lease traffic of the flat layout collapses into one
        ``utime`` per interval regardless of batch size.  On interruption
        the unfinished remainder is released back to the queue.
        """
        self.stats.batches_claimed += 1
        self._in_flight = {
            "batch_id": batch.batch_id,
            "tasks": len(batch.specs),
            "remaining": len(batch.specs),
        }
        self._say(
            f"claimed batch {batch.batch_id} ({len(batch.specs)} task(s))",
            event="claim",
            batch_id=batch.batch_id,
            tasks=len(batch.specs),
        )
        heartbeat_stop = threading.Event()
        interval = max(0.05, self.spool.lease_ttl_s / 4.0)

        def _beat() -> None:
            self._last_beat = time.time()
            while not heartbeat_stop.wait(interval):
                self.spool.heartbeat_batch(batch.batch_id)
                self._last_beat = time.time()

        heartbeat = threading.Thread(
            target=_beat, name=f"heartbeat-{batch.batch_id}", daemon=True
        )
        heartbeat.start()
        succeeded = 0
        completed = 0
        try:
            for spec in batch.specs:
                if self._stopped() or (
                    self.max_tasks is not None
                    and self.stats.tasks_done >= self.max_tasks
                ):
                    break
                if self._execute(spec):
                    succeeded += 1
                completed += 1
                if self._in_flight is not None:
                    self._in_flight = {
                        **self._in_flight,
                        "remaining": len(batch.specs) - completed,
                    }
        except KeyboardInterrupt:
            self.spool.release_batch(batch)
            self._say(
                f"interrupted; released batch {batch.batch_id}",
                event="release",
                batch_id=batch.batch_id,
            )
            raise
        finally:
            heartbeat_stop.set()
            heartbeat.join()
            self._in_flight = None
        if completed < len(batch.specs):  # stopped early: hand the rest back
            self.spool.release_batch(batch)
        return succeeded

    # ------------------------------------------------------------ one task
    def _execute(self, spec: TaskSpec) -> bool:
        """Simulate one task's seeds into the cache, then ack (or fail).

        Every computed value is written to the cache *before* the ack, so a
        crash after N seeds loses at most the claim (reclaimed by a peer
        after lease expiry), never a result — and the reclaiming worker
        finds the first N seeds already cached.
        """
        self._say(
            f"claimed {spec.task_id} ({spec.label or spec.strategy}, {len(spec.seeds)} seed(s))",
            event="task",
            task_id=spec.task_id,
            seeds=len(spec.seeds),
        )
        try:
            digest = exec_digest.config_digest(spec.config)
            if (digest, spec.config.strategy) != (spec.digest, spec.strategy):
                raise SpoolError(
                    f"config hashes to {digest} ({spec.config.strategy}) under digest "
                    f"version {exec_digest.DIGEST_VERSION!r}, not to the key {spec.digest} "
                    f"({spec.strategy}, version {spec.digest_version!r}); nothing simulated"
                )
            for seed in spec.seeds:
                if self.cache.probe(spec.digest, spec.strategy, seed) is not None:
                    # A previous (crashed) attempt already delivered it.
                    self.stats.cache_hits += 1
                    continue
                value = simulate_waste(spec.config, seed)
                self.cache.put(spec.digest, spec.strategy, seed, value)
                self.stats.seeds_simulated += 1
        except MemoryError:
            raise
        except Exception as exc:
            # Only regular task failures become failure records.  Worker
            # *death* (KeyboardInterrupt, SystemExit from a signal handler,
            # MemoryError — re-raised above, since it *is* an Exception)
            # must propagate instead: the lease then expires and a peer
            # retries the task, which is the documented crash story — a
            # failure record would abort the whole batch.
            self.stats.tasks_failed += 1
            self.spool.fail(
                spec.task_id,
                "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
                worker_id=self.worker_id,
            )
            self._say(
                f"task {spec.task_id} failed: {exc!r}",
                event="fail",
                task_id=spec.task_id,
            )
            return False
        try:
            self.spool.ack(spec.task_id, worker_id=self.worker_id)
        except SpoolError:
            # The lease expired mid-task and a peer reclaimed it.  Harmless:
            # every value is already in the cache, so the peer's re-run will
            # be all cache hits and its ack will stand.
            self._say(
                f"task {spec.task_id} was reclaimed before ack (results cached)",
                event="reclaimed",
                task_id=spec.task_id,
            )
        self.stats.tasks_done += 1
        self._say(f"done {spec.task_id}", event="done", task_id=spec.task_id)
        return True
