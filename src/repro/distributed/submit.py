"""The ``"spool"`` execution backend: submit to the spool, poll the cache.

:class:`SpoolBackend` plugs distributed execution into
:class:`~repro.exec.runner.ParallelRunner` (and therefore into
``CampaignRunner`` and every experiment entry point) without those layers
knowing anything about workers:

1. the runner has already subtracted cache hits, so the batch's pending
   seeds are exactly the cache misses; they are chunked into
   content-addressed :class:`~repro.distributed.tasks.TaskSpec` documents
   and enqueued idempotently, all at once;
2. every poll probes the cache for each seed still outstanding.  Workers
   write every seed into the cache *before* they ack, so the cache alone
   records delivery — partial progress of long tasks and seeds delivered
   by another submitter included — and a poll costs one probe per
   outstanding seed however long the spool's history grows;
3. failure records of tasks that still owe seeds abort the wait with the
   remote traceback, and expired leases are reclaimed along the way so a
   crashed worker's tasks return to the queue even when no other worker
   notices.

Results travel exclusively through the cache, whose JSON float encoding is
``repr``-exact — which is why the spool backend is bit-identical to the
serial one, and why an interrupted campaign resumes for free: delivered
seeds are cache hits, undelivered ones are re-enqueued under the same ids.
"""

from __future__ import annotations

import time

from repro.distributed.spool import WorkSpool
from repro.distributed.tasks import make_task_specs
from repro.errors import ConfigurationError, SpoolError
from repro.exec.runner import ExecutionBackend, ParallelRunner, SeedBatch

__all__ = ["SpoolBackend"]


class SpoolBackend(ExecutionBackend):
    """Submitter half of the distributed spool (see module docstring)."""

    #: Workers write every value into the shared cache themselves; the
    #: runner must not write the polled values back a second time.
    persists_results = True

    def __init__(self, runner: ParallelRunner) -> None:
        super().__init__(runner)
        if runner.spool_dir is None or runner.cache is None:
            raise ConfigurationError(
                "the spool backend needs spool_dir and a shared result cache"
            )
        self.spool = WorkSpool(runner.spool_dir, lease_ttl_s=runner.spool_lease_ttl_s)

    def run(self, batch: SeedBatch) -> dict[int, float]:
        if batch.cache_key is None:
            raise ConfigurationError(
                "the spool backend requires content-addressed tasks (a cache "
                "key); use run_config(), or map_seeds(cache_key=...)"
            )
        runner = self.runner
        cache = runner.cache
        assert cache is not None  # validated by the runner and __init__
        digest, strategy = batch.cache_key
        specs = make_task_specs(
            batch.task,
            digest,
            strategy,
            [seed for _, seed in batch.pending],
            label=batch.label,
            chunk_size=runner.chunk_size,
        )
        self.spool.enqueue_many(specs)

        outstanding: dict[int, int] = dict(batch.pending)
        computed: dict[int, float] = {}
        deadline = (
            time.time() + runner.spool_timeout_s if runner.spool_timeout_s is not None else None
        )
        while True:
            delivered = 0
            for index, seed in list(outstanding.items()):
                value = cache.probe(digest, strategy, seed)
                if value is not None:
                    computed[index] = value
                    del outstanding[index]
                    delivered += 1
            if delivered:
                runner.stats.remote_seeds += delivered
                runner._emit(
                    batch.label, batch.cached + len(computed), batch.total, batch.cached
                )
                if not outstanding:
                    return computed
            # Only a task that still owes seeds can abort the batch.
            waiting = set(outstanding.values())
            failed = sorted(
                spec.task_id
                for spec in specs
                if waiting.intersection(spec.seeds) and self.spool.has_failed(spec.task_id)
            )
            if failed:
                details = "; ".join(
                    f"{task_id}: {(self.spool.failure(task_id) or 'unknown error').strip().splitlines()[-1]}"
                    for task_id in failed
                )
                raise SpoolError(
                    f"{len(failed)} spooled task(s) of batch {batch.label!r} failed "
                    f"on remote worker(s) — {details} (full tracebacks under "
                    f"{self.spool.root / 'failed'})"
                )
            if deadline is not None and time.time() > deadline:
                raise SpoolError(
                    f"timed out after {runner.spool_timeout_s:g}s waiting for "
                    f"{len(outstanding)} seed(s) of batch {batch.label!r}; are "
                    f"workers running against --spool {self.spool.root}?"
                )
            # A crashed worker's lease must expire even when every healthy
            # worker is busy elsewhere, so the submitter sweeps too.
            self.spool.reclaim_expired()
            time.sleep(runner.spool_poll_s)
