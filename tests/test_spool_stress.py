"""Crash-recovery stress tests: random worker kills under load.

The distributed subsystem's headline guarantee is that worker death is
*invisible* in the results: leases expire, peers reclaim, the cache
deduplicates, and the campaign comes out bit-identical to the serial
backend.  These tests enforce that with a seeded chooser that kills worker
threads (``SystemExit`` raised from inside the spool's FS-ops choke point)
at random claim/heartbeat/ack points while a spool-backend submitter runs
a real campaign batch — 25 seeded iterations, each diffed float-for-float
against the serial backend.

Worker thread 0 is never killed, so every iteration keeps at least one
survivor to drain what the dead leave behind (the production analogue: a
fleet where *some* worker outlives the incident).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.distributed import SpoolWorker, WorkSpool, make_task_specs
from repro.exec import ParallelRunner, config_digest
from repro.stats.montecarlo import derive_seeds
from repro.store import FilesystemStore

_WORKERS = 3
_SEEDS_PER_RUN = 5
_HORIZON_S = 0.25 * 86400.0


class KillChooser:
    """Seeded hook that kills *expendable* worker threads at random FS ops.

    Only threads named ``stress-worker-N`` with N > 0 are eligible — the
    submitter (main thread) and worker 0 always survive.  ``SystemExit``
    models sudden death: it is not an ``Exception``, so no task-failure
    handler swallows it and the thread dies exactly at the chosen claim /
    heartbeat / ack operation, leaving its lease to expire.
    """

    def __init__(self, seed: int, rate: float) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.rate = rate
        self.kills = 0

    def __call__(self, op: str, path: str) -> None:
        name = threading.current_thread().name
        if not name.startswith("stress-worker-") or name.endswith("-0"):
            return
        with self._lock:
            fire = self._rng.random() < self.rate
            if fire:
                self.kills += 1
        if fire:
            raise SystemExit(f"chooser killed {name} at {op} {path}")


@pytest.fixture
def stress_fleet(fs_faults):
    """Run a worker fleet whose expendable members a chooser may kill."""
    import contextlib

    def die_quietly(worker):
        try:
            worker.run()
        except SystemExit:
            pass  # the modeled sudden death — the thread just ends here

    @contextlib.contextmanager
    def run(spool_dir, cache_dir, *, chooser, lease_ttl_s=0.3):
        fs_faults(chooser)
        stop = threading.Event()
        workers, threads = [], []
        for index in range(_WORKERS):
            worker = SpoolWorker(
                WorkSpool(spool_dir, lease_ttl_s=lease_ttl_s),
                FilesystemStore(cache_dir),
                worker_id=f"stress-worker-{index}",
                poll_interval_s=0.01,
                batch_size=2,
                stop_event=stop,
            )
            thread = threading.Thread(
                target=die_quietly, args=(worker,), name=f"stress-worker-{index}", daemon=True
            )
            thread.start()
            workers.append(worker)
            threads.append(thread)
        try:
            yield workers
        finally:
            stop.set()
            fs_faults(None)  # dead threads stay dead; survivors drain clean
            for thread in threads:
                thread.join(timeout=60)

    return run


@pytest.mark.parametrize("iteration", range(25))
def test_random_kills_leave_results_bit_identical(
    iteration, tiny_config, tmp_path, stress_fleet
):
    """The acceptance loop: 25 seeded kill schedules, each campaign batch
    byte-identical to serial, each spool fully drained."""
    config = tiny_config(horizon_s=_HORIZON_S)
    seeds = derive_seeds(iteration, _SEEDS_PER_RUN)
    serial = ParallelRunner().map_seeds(config, seeds)

    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    chooser = KillChooser(seed=1000 + iteration, rate=0.02)
    runner = ParallelRunner(
        backend="spool",
        spool_dir=spool_dir,
        cache=FilesystemStore(cache_dir),
        spool_poll_s=0.01,
        spool_lease_ttl_s=0.3,
        spool_timeout_s=120.0,
    )
    with stress_fleet(spool_dir, cache_dir, chooser=chooser):
        spooled = runner.map_seeds(config, seeds)

    assert spooled == serial  # float-for-float
    assert [repr(v) for v in spooled] == [repr(v) for v in serial]  # byte-level

    # The submitter may finish (cache-complete) while a dead worker's claim
    # is still inside its lease.  Once the lease expires, a clean drain pass
    # must leave nothing behind — no lost and no failed tasks.
    sweeper = WorkSpool(spool_dir, lease_ttl_s=0.3)
    status = sweeper.status()
    if not status.drained:
        time.sleep(0.35)  # let the dead worker's lease expire
        sweeper.reclaim_expired()
        SpoolWorker(
            sweeper, FilesystemStore(cache_dir), worker_id="janitor", poll_interval_s=0.01
        ).run(drain=True)
        status = sweeper.status()
    assert status.drained and status.failed == 0


def test_campaign_result_survives_deterministic_mid_batch_kill(
    tmp_path, stress_fleet
):
    """Pin the nastiest single point at full campaign scope: a worker dies
    exactly at its first lease heartbeat, mid-batch; a peer reclaims, and
    the whole ``CampaignResult`` equals the serial backend's, bit for bit."""
    from repro.scenarios.presets import make_campaign
    from repro.scenarios.runner import run_campaign

    campaign = make_campaign("smoke", num_runs=2, horizon_days=0.25)
    serial = run_campaign(campaign)

    killed = threading.Event()

    def kill_first_heartbeat(op: str, path: str) -> None:
        name = threading.current_thread().name
        if op == "utime" and name.startswith("stress-worker-") and not name.endswith("-0"):
            if not killed.is_set():
                killed.set()
                raise SystemExit(f"killed {name} at first heartbeat")

    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    runner = ParallelRunner(
        backend="spool",
        spool_dir=spool_dir,
        cache=FilesystemStore(cache_dir),
        spool_poll_s=0.01,
        spool_lease_ttl_s=0.3,
        spool_timeout_s=120.0,
    )
    with stress_fleet(spool_dir, cache_dir, chooser=kill_first_heartbeat):
        spooled = run_campaign(campaign, runner)
    assert spooled == serial  # the full campaign table, bit-identical
    assert runner.stats.tasks_run == 0  # the submitter simulated nothing


def test_concurrent_reclaim_sweeps_grant_each_task_exactly_once(tmp_path, tiny_config):
    """Many sweepers racing over the same expired batches must partition the
    reclaimed tasks: every expired task reclaimed by exactly one sweeper."""
    spool = WorkSpool(tmp_path, lease_ttl_s=0.05)
    config = tiny_config(horizon_s=_HORIZON_S)
    digest = config_digest(config)
    seeds = derive_seeds(7, 12)
    specs = make_task_specs(
        config, digest, config.strategy, seeds, chunk_size=1
    )
    assert spool.enqueue_many(specs) == len(specs)
    claimed = 0
    while spool.claim_batch("doomed", limit=3) is not None:
        claimed += 1
    assert claimed >= 1 and spool.status().claimed == len(specs)
    deadline = time.time() + 5.0
    while spool.reclaim_expired() == [] and time.time() < deadline:
        time.sleep(0.01)  # wait out the leases (first sweep may be early)
    # Refill the claims so several batches are expired at once.
    spool2 = WorkSpool(tmp_path, lease_ttl_s=0.05)
    while spool2.claim_batch("doomed-again", limit=3) is not None:
        pass
    time.sleep(0.15)  # let every lease expire

    reclaimed: list[list[str]] = [[] for _ in range(4)]
    sweepers = [WorkSpool(tmp_path, lease_ttl_s=0.05) for _ in range(4)]

    def sweep(index: int) -> None:
        reclaimed[index].extend(sweepers[index].reclaim_expired())

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    winners = [task_id for per_sweeper in reclaimed for task_id in per_sweeper]
    assert len(winners) == len(set(winners))  # exactly one winner per task
    status = spool.status()
    assert status.pending == len(specs) and status.claimed == 0
