"""repro.distributed — broker-less distributed campaign execution.

Campaign cells are content-addressed (``config_digest`` + strategy + seed),
which makes distribution almost free: a *work spool* — a plain directory of
JSON task specs — is the whole coordination layer.  No broker, no sockets,
no database; any filesystem shared between machines (NFS, a bind mount, or
just ``localhost``) is a cluster.

* :class:`~repro.distributed.spool.WorkSpool` — the filesystem work queue,
  sharded by config-digest prefix for fleet scale.  Enqueue writes a spec
  into its shard of ``tasks/``; claiming renames a whole shard directory
  into ``claims/<batch_id>/`` (one rename claims a batch; exactly one
  claimer wins); the batch's lease-file mtime is the worker's heartbeat,
  and batches whose lease expired are reclaimed back into their shards so
  crashed workers never strand work.
* :class:`~repro.distributed.tasks.TaskSpec` — one spooled unit of work: a
  configuration, as data, plus the ``(digest, strategy, seeds)`` triple it
  covers, content-addressed so re-submitting after an interruption is
  idempotent.
* :class:`~repro.distributed.worker.SpoolWorker` — the ``worker`` CLI
  daemon's engine: claim -> simulate each seed into the shared
  :class:`~repro.store.ResultStore` -> ack, with a background
  heartbeat thread while a task is in flight.
* :class:`~repro.distributed.submit.SpoolBackend` — the ``"spool"``
  execution backend of :class:`~repro.exec.runner.ParallelRunner`: the
  submitter enqueues only cache-miss seeds, then polls the cache until
  workers deliver them; results are bit-identical to the serial backend
  because the cache round-trip is ``repr``-exact.

The result cache is the delivery channel, so the submitter is naturally
resumable: interrupt a campaign, re-run it, and already-delivered seeds are
cache hits while in-flight tasks keep their spool entries.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__, __getattr__ = _lazy_exports(globals(), {
    "repro.distributed.spool": ("ClaimedBatch", "SpoolStatus", "WorkSpool"),
    "repro.distributed.submit": ("SpoolBackend",),
    "repro.distributed.tasks": ("TaskSpec", "make_task_specs", "shard_of"),
    "repro.distributed.worker": ("SpoolWorker", "WorkerStats"),
})
