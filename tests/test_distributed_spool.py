"""Unit tests of the filesystem work spool and the task-spec format.

The spool's whole correctness argument rests on atomic renames: exactly one
claimer wins a task, exactly one reclaimer wins an expired lease, and specs
are content-addressed so re-submission is idempotent.  These tests pin each
of those properties, including under deliberate concurrency.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.distributed import TaskSpec, WorkSpool, make_task_specs
from repro.distributed.tasks import SPOOL_FORMAT_VERSION, shard_of, task_id_for
from repro.errors import ConfigurationError, SpoolError
from repro.simulation.config import SimulationConfig
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

#: The config every spec carries; these tests never simulate it.
_CONFIG = SimulationConfig(platform=cielo_platform(), classes=apex_workload())


def _spec(seeds=(1, 2, 3), strategy="least-waste", digest="a" * 64) -> TaskSpec:
    return TaskSpec(config=_CONFIG, digest=digest, strategy=strategy, seeds=seeds)


def _queued_path(root, task_id: str):
    """Where one pending task sits in the sharded layout."""
    return root / "tasks" / shard_of(task_id) / f"{task_id}.json"


def _lease_of(root, task_id: str):
    """The lease file of the claim batch currently holding one task."""
    for batch_dir in (root / "claims").iterdir():
        if batch_dir.is_dir() and (batch_dir / f"{task_id}.json").exists():
            return batch_dir / ".lease.json"
    raise AssertionError(f"no claim batch holds {task_id!r}")


# ------------------------------------------------------------ construction
def test_spool_validates_parameters(tmp_path):
    with pytest.raises(ConfigurationError):
        WorkSpool(tmp_path, lease_ttl_s=0.0)
    stray = tmp_path / "stray"
    stray.write_text("not a directory")
    with pytest.raises(ConfigurationError):
        WorkSpool(stray)
    spool = WorkSpool(tmp_path / "spool")
    for state in ("tasks", "claims", "done", "failed"):
        assert (tmp_path / "spool" / state).is_dir()
    assert not (tmp_path / "spool" / "index").exists()  # no event journals
    assert spool.status().drained


# ------------------------------------------------------------ task specs
def test_task_spec_round_trips_through_json(tmp_path):
    spec = _spec()
    decoded = TaskSpec.decode(spec.encode())
    assert decoded.task_id == spec.task_id
    assert decoded.digest == spec.digest
    assert decoded.strategy == spec.strategy
    assert decoded.seeds == spec.seeds
    assert decoded.config == spec.config  # the config travels as data


def test_task_spec_is_content_addressed():
    assert _spec().task_id == _spec().task_id
    assert _spec(seeds=(1, 2)).task_id != _spec(seeds=(1, 2, 3)).task_id
    assert _spec(strategy="ordered-daly").task_id != _spec().task_id
    assert _spec(digest="b" * 64).task_id != _spec().task_id
    # ids are filename-safe and human-scannable: digest prefix + strategy.
    assert _spec().task_id.startswith("aaaaaaaa-least-waste-")
    assert task_id_for("a" * 64, "least-waste", [1, 2, 3]) == _spec().task_id


def test_task_spec_rejects_garbage_and_version_mismatch():
    with pytest.raises(SpoolError):
        TaskSpec.decode("{not json")
    with pytest.raises(SpoolError):
        TaskSpec.decode('{"format": "0", "task_id": "x"}')
    with pytest.raises(SpoolError):
        TaskSpec.decode('{"format": "%s"}' % SPOOL_FORMAT_VERSION)  # missing fields
    with pytest.raises(SpoolError):
        TaskSpec(config=_CONFIG, digest="a" * 64, strategy="s", seeds=())


def test_make_task_specs_chunking():
    specs = make_task_specs(_CONFIG, "a" * 64, "least-waste", range(10), chunk_size=4)
    assert [list(s.seeds) for s in specs] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    # Default: about four chunks per batch so one cell spreads across workers.
    assert len(make_task_specs(_CONFIG, "a" * 64, "s" , range(10))) == 4
    assert make_task_specs(_CONFIG, "a" * 64, "s", []) == []


# ------------------------------------------------------------ lifecycle
def test_enqueue_claim_ack_lifecycle(tmp_path):
    spool = WorkSpool(tmp_path)
    spec = _spec()
    assert spool.enqueue(spec) is True
    assert spool.enqueue(spec) is False  # content-addressed: double submit is a no-op
    assert spool.status().pending == 1

    claimed = spool.claim("w1")
    assert claimed is not None and claimed.task_id == spec.task_id
    assert spool.status().claimed == 1 and spool.status().pending == 0
    assert spool.enqueue(spec) is False  # claimed tasks can't be re-queued
    assert spool.claim("w2") is None  # nothing left to claim

    spool.ack(spec.task_id, worker_id="w1")
    status = spool.status()
    assert status.done == 1 and status.drained


def test_ack_without_claim_raises(tmp_path):
    spool = WorkSpool(tmp_path)
    with pytest.raises(SpoolError):
        spool.ack("no-such-task")


def test_release_returns_task_to_queue(tmp_path):
    spool = WorkSpool(tmp_path)
    spec = _spec()
    spool.enqueue(spec)
    spool.claim("w1")
    spool.release(spec.task_id)
    assert spool.status().pending == 1 and spool.status().claimed == 0
    assert spool.claim("w2").task_id == spec.task_id


def test_fail_records_error_and_resubmission_retries(tmp_path):
    spool = WorkSpool(tmp_path)
    spec = _spec()
    spool.enqueue(spec)
    spool.claim("w1")
    spool.fail(spec.task_id, "ValueError: boom", worker_id="w1")
    assert spool.status().failed == 1
    assert spool.has_failed(spec.task_id)
    assert "boom" in spool.failure(spec.task_id)
    assert spool.failure("unknown-task") is None
    # Re-submitting retries: the failure record is cleared.
    assert spool.enqueue(spec) is True
    assert spool.status().failed == 0 and spool.status().pending == 1


def test_enqueue_clears_stale_done_marker(tmp_path):
    spool = WorkSpool(tmp_path)
    spec = _spec()
    spool.enqueue(spec)
    spool.claim("w1")
    spool.ack(spec.task_id)
    # The submitter only enqueues cache misses, so a done marker for work
    # being re-submitted is stale (e.g. the cache was pruned) and must yield.
    assert spool.enqueue(spec) is True
    assert spool.status().pending == 1 and spool.status().done == 0


def test_corrupt_spec_is_quarantined_not_wedging_the_queue(tmp_path):
    spool = WorkSpool(tmp_path)
    good = _spec()
    bad = _queued_path(tmp_path, "00000000-bad-deadbeef")
    bad.parent.mkdir(parents=True)
    bad.write_text("{corrupt")
    spool.enqueue(good)
    claimed = []
    while (spec := spool.claim("w1")) is not None:  # quarantines, never wedges
        claimed.append(spec.task_id)
    assert claimed == [good.task_id]
    assert spool.status().failed == 1
    assert "corrupt" in spool.failure("00000000-bad-deadbeef")


def test_a_spec_naming_another_task_id_is_quarantined_not_run_forever(tmp_path, tiny_config):
    """ack and fail look a claimed spec up by the id its document names, so
    a file holding another id could never be acked: it was claimed, run and
    handed back at every lease expiry.  Its claimer quarantines it."""
    from repro.distributed import SpoolWorker
    from repro.exec import config_digest
    from repro.store import FilesystemStore

    config = tiny_config(horizon_s=0.25 * 86400.0)
    spec = TaskSpec(
        config=config, digest=config_digest(config), strategy=config.strategy, seeds=(1,)
    )
    path = _queued_path(tmp_path / "spool", spec.task_id)
    path.parent.mkdir(parents=True)
    path.write_text(dataclasses.replace(spec, task_id=f"{spec.task_id}-copy").encode())
    spool = WorkSpool(tmp_path / "spool", lease_ttl_s=0.2)
    worker = SpoolWorker(
        spool, FilesystemStore(tmp_path / "cache"), poll_interval_s=0.01, max_tasks=3
    )
    assert worker.run(drain=True, idle_timeout_s=2.0).tasks_done == 0
    assert spool.status().describe() == "0 pending, 0 claimed, 0 done, 1 failed"
    assert "is not its file name" in spool.failure(spec.task_id)


# ------------------------------------------------------------ leases
def test_expired_lease_is_reclaimed_exactly_once(tmp_path):
    spool = WorkSpool(tmp_path, lease_ttl_s=0.05)
    spec = _spec()
    spool.enqueue(spec)
    spool.claim("doomed")
    assert spool.reclaim_expired() == []  # lease still fresh
    past = time.time() - 60.0
    os.utime(_lease_of(tmp_path, spec.task_id), (past, past))
    assert spool.reclaim_expired() == [spec.task_id]
    assert spool.reclaim_expired() == []  # second sweep finds nothing
    assert spool.status().pending == 1
    assert spool.claim("survivor").task_id == spec.task_id


def test_sweeper_honours_the_claimers_recorded_lease_ttl(tmp_path):
    """Expiry is judged by the TTL the *claimer* recorded, so a submitter
    configured with a shorter lease than the workers never steals a live
    claim whose heartbeat cadence is legitimate under the longer TTL."""
    worker_spool = WorkSpool(tmp_path, lease_ttl_s=300.0)
    spec = _spec()
    worker_spool.enqueue(spec)
    worker_spool.claim("long-lease-worker")
    past = time.time() - 60.0  # stale under 0.05s, fresh under 300s
    lease = _lease_of(tmp_path, spec.task_id)
    os.utime(lease, (past, past))
    sweeper = WorkSpool(tmp_path, lease_ttl_s=0.05)
    assert sweeper.reclaim_expired() == []
    # Without a lease the sweep falls back to its own (short) TTL, judged
    # on the batch directory's mtime.
    batch_dir = lease.parent
    lease.unlink()
    os.utime(batch_dir, (past, past))
    assert sweeper.reclaim_expired() == [spec.task_id]


@pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 86_401.0])
def test_spool_refuses_a_lease_ttl_that_is_not_a_finite_day_or_less(tmp_path, ttl):
    # Any sweeper reclaims a NaN lease at once, and a TTL of 1e10 s or more
    # overflows the heartbeat's Event.wait.
    with pytest.raises(ConfigurationError, match="lease_ttl_s"):
        WorkSpool(tmp_path, lease_ttl_s=ttl)
    WorkSpool(tmp_path, lease_ttl_s=86_400.0)  # a day is the longest lease


@pytest.mark.parametrize("recorded", [float("nan"), float("inf"), 0.0, -5.0])
def test_a_fresh_batch_with_an_unusable_recorded_ttl_survives_a_sweep(tmp_path, recorded):
    """A lease whose TTL is not a finite positive number counts as
    half-written: the sweeper's own TTL applies to the batch directory's
    mtime, so a live claim is not handed back at once."""
    spool = WorkSpool(tmp_path)
    spec = _spec()
    spool.enqueue(spec)
    spool.claim("live-worker")
    lease = _lease_of(tmp_path, spec.task_id)
    body = json.loads(lease.read_text())
    body["lease_ttl_s"] = recorded
    lease.write_text(json.dumps(body))
    sweeper = WorkSpool(tmp_path, lease_ttl_s=60.0)
    assert sweeper.reclaim_expired() == []
    assert sweeper.status().claimed == 1
    # ...while an abandoned one still expires under the sweeper's TTL.
    past = time.time() - 120.0
    os.utime(lease.parent, (past, past))
    assert sweeper.reclaim_expired() == [spec.task_id]


def test_claim_refreshes_a_stale_queue_mtime(tmp_path):
    """A task that waited in the queue longer than the lease TTL must not
    look instantly expired once claimed (the rename preserves the old
    enqueue mtime; the claim's freshly written lease is what counts)."""
    spool = WorkSpool(tmp_path, lease_ttl_s=0.05)
    spec = _spec()
    spool.enqueue(spec)
    past = time.time() - 60.0
    os.utime(_queued_path(tmp_path, spec.task_id), (past, past))
    assert spool.claim("w1") is not None
    assert spool.reclaim_expired() == []  # the fresh claim holds its lease


def test_claim_hands_batch_back_when_the_lease_cannot_be_written(tmp_path):
    """A claim whose lease write keeps failing (full disk, PFS hiccup) must
    hand the batch back and report no claim — a leaseless batch would only
    expire via the slow directory-mtime fallback — not crash or run dark."""
    from repro.distributed import fsops

    spool = WorkSpool(tmp_path)
    spec = _spec()
    spool.enqueue(spec)

    def deny_lease_writes(op: str, path: str) -> None:
        if op == "write" and path.endswith(".lease.json"):
            raise OSError(f"injected: {op} {path}")

    previous = fsops.install_fault_hook(deny_lease_writes)
    try:
        assert spool.claim("w1") is None  # lost to the fault, no exception
    finally:
        fsops.install_fault_hook(previous)
    assert spool.status().pending == 1  # the task is back in the queue
    assert spool.claim("w2").task_id == spec.task_id


def test_heartbeat_keeps_lease_alive(tmp_path):
    spool = WorkSpool(tmp_path, lease_ttl_s=0.05)
    spec = _spec()
    spool.enqueue(spec)
    batch = spool.claim_batch("w1")
    assert batch is not None
    past = time.time() - 60.0
    os.utime(_lease_of(tmp_path, spec.task_id), (past, past))
    spool.heartbeat_batch(batch.batch_id)  # refreshes the lease before the sweep
    assert spool.reclaim_expired() == []
    spool.heartbeat_batch("missing-batch")  # reclaimed/finished batches are ignored
    assert not (tmp_path / "claims" / "missing-batch").exists()


def test_a_spec_that_lands_in_a_live_batch_is_handed_back(tmp_path):
    """A rename into a shard can land after a claimer renamed that shard into
    claims/ and listed it (a peer's hand-back, or an enqueue).  The sweep
    hands such a stray back at once instead of leaving it unlisted in a live
    batch until the lease expires."""
    spool = WorkSpool(tmp_path)
    claimed, stray = _spec(seeds=(1,)), _spec(seeds=(2,))
    spool.enqueue(claimed)
    batch = spool.claim_batch("w0")
    assert [spec.task_id for spec in batch.specs] == [claimed.task_id]
    batch_dir = tmp_path / "claims" / batch.batch_id
    (batch_dir / f"{stray.task_id}.json").write_text(stray.encode())
    assert spool.reclaim_expired() == [stray.task_id]
    assert (batch_dir / f"{claimed.task_id}.json").exists()  # the live claim stays
    again = spool.claim_batch("w1")
    assert [spec.task_id for spec in again.specs] == [stray.task_id]


# ------------------------------------------------------------ concurrency
def test_concurrent_claimers_partition_the_queue(tmp_path):
    """N threads hammering claim() must partition tasks with no duplicates."""
    spool_paths = [WorkSpool(tmp_path) for _ in range(4)]
    specs = [_spec(seeds=(seed,)) for seed in range(40)]
    for spec in specs:
        assert spool_paths[0].enqueue(spec)

    claimed: list[list[str]] = [[] for _ in spool_paths]

    def drain(worker: int) -> None:
        while True:
            spec = spool_paths[worker].claim(f"w{worker}")
            if spec is None:
                return
            claimed[worker].append(spec.task_id)

    threads = [threading.Thread(target=drain, args=(i,)) for i in range(len(spool_paths))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    all_claimed = [task_id for per_worker in claimed for task_id in per_worker]
    assert len(all_claimed) == len(specs)  # nothing lost
    assert len(set(all_claimed)) == len(specs)  # nothing claimed twice
    assert sorted(all_claimed) == sorted(spec.task_id for spec in specs)
