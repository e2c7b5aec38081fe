"""The ``"spool"`` execution backend: submit to the spool, poll the cache.

:class:`SpoolBackend` plugs distributed execution into
:class:`~repro.exec.runner.ParallelRunner` (and therefore into
``run_campaign`` and every experiment entry point) without those layers
knowing anything about workers.  A campaign reaches it as one batch, so
the submitter makes one enqueue and runs one poll loop per campaign, and
workers claim different cells from their first poll:

1. the runner has already subtracted cache hits, so the batch's pending
   seeds are exactly the campaign's cache misses; each cell's seeds are
   chunked into content-addressed
   :class:`~repro.distributed.tasks.TaskSpec` documents, and every spec
   is enqueued idempotently with one ``enqueue_many`` call;
2. every poll probes the cache for each seed still outstanding, in every
   cell, and reports progress per cell.  Workers write every seed into
   the cache *before* they ack, so the cache alone records delivery —
   partial progress of long tasks and seeds delivered by another
   submitter included — and a poll costs one probe per outstanding seed
   however long the spool's history grows;
3. failure records of tasks that still owe seeds abort the wait, naming
   the failing cells and the remote error line, and expired leases are
   reclaimed along the way so a crashed worker's tasks return to the
   queue even when no other worker notices;
4. ``spool_timeout_s`` aborts the wait only after that many seconds in
   which no outstanding seed was delivered, so a long campaign that keeps
   making progress is never cut off.

Results travel exclusively through the cache, whose JSON float encoding is
``repr``-exact — which is why the spool backend is bit-identical to the
serial one, and why an interrupted campaign resumes for free: delivered
seeds are cache hits, undelivered ones are re-enqueued under the same ids.
"""

from __future__ import annotations

import time

from repro.distributed.spool import WorkSpool
from repro.distributed.tasks import TaskSpec, make_task_specs
from repro.errors import ConfigurationError, SpoolError
from repro.exec.runner import ExecutionBackend, ParallelRunner, SeedBatch, SeedCell

__all__ = ["SpoolBackend"]


def _labels(cells: list[SeedCell]) -> str:
    """The distinct labels of some cells, quoted, for error messages."""
    labels = [repr(cell.label) for cell in dict.fromkeys(cells)]
    if len(labels) > 3:
        labels[3:] = [f"{len(labels) - 3} more"]
    return ", ".join(labels)


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
        runner = self.runner
        cache = runner.cache
        assert cache is not None  # validated by the runner and __init__
        specs: list[tuple[SeedCell, TaskSpec]] = []
        outstanding: dict[int, tuple[str, str, int]] = {}  # index -> store key
        for cell, entries in batch.by_cell():
            digest, strategy = cell.cache_key
            seeds = [int(entry.seed) for entry in entries]
            specs.extend(
                (cell, spec)
                for spec in make_task_specs(
                    cell.config,
                    digest,
                    strategy,
                    seeds,
                    label=cell.label,
                )
            )
            outstanding.update(
                (entry.index, (digest, strategy, seed)) for entry, seed in zip(entries, seeds)
            )
        self.spool.enqueue_many([spec for _, spec in specs])

        computed: dict[int, float] = {}
        last_delivery = time.monotonic()
        while True:
            arrived: dict[int, float] = {}
            for index, key in list(outstanding.items()):
                value = cache.probe(*key)
                if value is not None:
                    arrived[index] = value
                    del outstanding[index]
            if arrived:
                runner.stats.remote_seeds += len(arrived)
                batch.deliver(arrived)
                computed.update(arrived)
                if not outstanding:
                    return computed
                last_delivery = time.monotonic()
            # Only a task that still owes seeds can abort the campaign.
            waiting = set(outstanding.values())
            owing = [
                (cell, spec)
                for cell, spec in specs
                if any((spec.digest, spec.strategy, seed) in waiting for seed in spec.seeds)
            ]
            failed = [(cell, spec) for cell, spec in owing if self.spool.has_failed(spec.task_id)]
            if failed:
                details = "; ".join(
                    f"{spec.task_id}: {(self.spool.failure(spec.task_id) or 'unknown error').strip().splitlines()[-1]}"
                    for _, spec in failed
                )
                raise SpoolError(
                    f"{len(failed)} spooled task(s) of cell(s) "
                    f"{_labels([cell for cell, _ in failed])} failed on remote "
                    f"worker(s) — {details} (full tracebacks under "
                    f"{self.spool.root / 'failed'})"
                )
            timeout = runner.spool_timeout_s
            if timeout is not None and time.monotonic() - last_delivery > timeout:
                raise SpoolError(
                    f"timed out after {timeout:g}s waiting for {len(outstanding)} "
                    f"seed(s) of cell(s) {_labels([cell for cell, _ in owing])}: none "
                    f"was delivered in that time; are workers running against "
                    f"--spool {self.spool.root}?"
                )
            # A crashed worker's lease must expire even when every healthy
            # worker is busy elsewhere, so the submitter sweeps too.
            self.spool.reclaim_expired()
            time.sleep(runner.spool_poll_s)
