"""Worker-loop and crash-recovery tests of the distributed subsystem.

The headline guarantee: a campaign executed through the spool backend is
bit-identical to the serial backend *even when a worker dies mid-task* —
the lease expires, a surviving worker reclaims the task, already-delivered
seeds are skipped (cache probes), and the submitter never notices.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import threading
import time

import pytest

from repro.distributed import SpoolWorker, WorkSpool, make_task_specs
from repro.distributed.tasks import shard_of
from repro.errors import ConfigurationError
from repro.exec import DIGEST_VERSION, ParallelRunner, config_digest, simulate_waste
from repro.scenarios.campaign import Campaign
from repro.scenarios.presets import smoke_campaign
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import Scenario
from repro.stats.montecarlo import derive_seeds
from repro.store import FilesystemStore


def _lease_of(spool_root, task_id: str):
    """The lease file of the claim batch currently holding one task."""
    for batch_dir in (spool_root / "claims").iterdir():
        if batch_dir.is_dir() and (batch_dir / f"{task_id}.json").exists():
            return batch_dir / ".lease.json"
    raise AssertionError(f"no claim batch holds {task_id!r}")


def _crash_scenario(tiny_platform, tiny_classes) -> Scenario:
    return Scenario(
        name="crashy",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("ordered-daly", "least-waste"),
        num_runs=4,
        horizon_days=0.25,
        warmup_days=0.02,
        cooldown_days=0.02,
    )


# ------------------------------------------------------------ worker loop
@pytest.mark.parametrize(
    "field, value",
    [
        ("poll_interval_s", float("nan")),  # time.sleep raises at the first empty poll
        ("poll_interval_s", 1e12),  # time.sleep overflows
        ("poll_interval_s", 0.0),
        ("max_tasks", 0),  # would return having done nothing
        ("max_tasks", -1),
        ("batch_size", 0),  # would fail only at the first claim
    ],
)
def test_worker_refuses_settings_it_cannot_run_with(tmp_path, field, value):
    spool = WorkSpool(tmp_path / "spool")
    with pytest.raises(ConfigurationError, match=field):
        SpoolWorker(spool, FilesystemStore(tmp_path / "cache"), **{field: value})


@pytest.mark.parametrize("idle_timeout_s", [float("nan"), float("inf"), -1.0])
def test_worker_refuses_an_idle_timeout_it_cannot_honour(tmp_path, idle_timeout_s):
    # A NaN timeout used to keep an idle worker polling forever: the guard
    # stops such a run after 2 s, so the test fails instead of hanging.
    stop = threading.Event()
    worker = SpoolWorker(
        WorkSpool(tmp_path / "spool"),
        FilesystemStore(tmp_path / "cache"),
        poll_interval_s=0.05,
        stop_event=stop,
    )
    guard = threading.Timer(2.0, stop.set)
    guard.start()
    try:
        with pytest.raises(ConfigurationError, match="idle_timeout_s"):
            worker.run(idle_timeout_s=idle_timeout_s)
    finally:
        guard.cancel()
    assert worker.stats.polls == 0


def test_worker_drain_mode_processes_everything_and_exits(tmp_path, tiny_config):
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    config = tiny_config(horizon_s=0.25 * 86400.0)
    digest = config_digest(config)
    seeds = derive_seeds(0, 3)
    for spec in make_task_specs(config, digest, config.strategy, seeds):
        spool.enqueue(spec)

    worker = SpoolWorker(spool, cache, worker_id="w1", poll_interval_s=0.01)
    stats = worker.run(drain=True)
    assert stats.tasks_done == 3  # default chunking: 3 seeds -> 3 specs
    assert stats.seeds_simulated == 3
    assert spool.status().drained and spool.status().done == 3
    for seed in seeds:
        assert cache.probe(digest, config.strategy, seed) is not None

    # Drained spool: a second drain-mode worker exits without claiming.
    assert SpoolWorker(spool, cache, poll_interval_s=0.01).run(drain=True).tasks_done == 0


def test_worker_idle_timeout_and_max_tasks(tmp_path, tiny_config):
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    start = time.time()
    stats = SpoolWorker(spool, cache, poll_interval_s=0.01).run(idle_timeout_s=0.05)
    assert stats.tasks_done == 0
    assert time.time() - start < 10.0

    config = tiny_config(horizon_s=0.25 * 86400.0)
    for spec in make_task_specs(
        config, config_digest(config), config.strategy, derive_seeds(0, 3)
    ):
        spool.enqueue(spec)
    capped = SpoolWorker(spool, cache, poll_interval_s=0.01, max_tasks=2)
    assert capped.run(drain=True).tasks_done == 2
    assert spool.status().pending == 1  # one task intentionally left


def test_worker_records_failure_and_keeps_going(tmp_path, tiny_config):
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    # One event is too few for any run: simulating it raises SimulationError.
    doomed = tiny_config(horizon_s=0.25 * 86400.0, max_events=1)
    bad = make_task_specs(
        doomed, config_digest(doomed), doomed.strategy, [1], chunk_size=1
    )[0]
    config = tiny_config(horizon_s=0.25 * 86400.0)
    good = make_task_specs(
        config, config_digest(config), config.strategy, [7], chunk_size=1
    )[0]
    spool.enqueue(bad)
    spool.enqueue(good)
    stats = SpoolWorker(spool, cache, poll_interval_s=0.01).run(drain=True)
    assert stats.tasks_failed == 1 and stats.tasks_done == 1
    assert spool.has_failed(bad.task_id) and spool.status().failed == 1
    assert "SimulationError" in spool.failure(bad.task_id)  # full remote traceback
    assert cache.probe(bad.digest, bad.strategy, 1) is None


def test_worker_death_is_not_recorded_as_a_task_failure(tmp_path, tiny_config, monkeypatch):
    """SystemExit (a supervisor stopping the worker) must propagate and leave
    the claim to lease expiry — a failure record would abort the submitter's
    whole batch instead of letting a peer retry."""
    spool = WorkSpool(tmp_path / "spool", lease_ttl_s=0.05)
    cache = FilesystemStore(tmp_path / "cache")
    config = tiny_config(horizon_s=0.25 * 86400.0)
    spec = make_task_specs(
        config, config_digest(config), config.strategy, [1], chunk_size=1
    )[0]
    spool.enqueue(spec)
    monkeypatch.setattr("repro.distributed.worker.simulate_waste", _exits_hard)
    worker = SpoolWorker(spool, cache, poll_interval_s=0.01)
    with pytest.raises(SystemExit):
        worker.run(drain=True)
    status = spool.status()
    assert status.failed == 0  # no failure record...
    assert status.claimed == 1  # ...the claim is simply orphaned
    time.sleep(0.06)
    assert spool.reclaim_expired() == [spec.task_id]  # and peers reclaim it


def _exits_hard(config, seed: int) -> float:
    raise SystemExit(1)


def test_worker_skips_seeds_a_previous_attempt_already_delivered(tmp_path, tiny_config):
    """Reclaimed tasks re-simulate only the seeds the crashed worker lost."""
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    config = tiny_config(horizon_s=0.25 * 86400.0)
    digest = config_digest(config)
    seeds = derive_seeds(0, 3)
    spec = make_task_specs(
        config, digest, config.strategy, seeds, chunk_size=3
    )[0]
    # A previous attempt delivered the first two seeds before dying.
    for seed in seeds[:2]:
        cache.put(digest, config.strategy, seed, simulate_waste(config, seed))
    spool.enqueue(spec)
    stats = SpoolWorker(spool, cache, poll_interval_s=0.01).run(drain=True)
    assert stats.tasks_done == 1
    assert stats.seeds_simulated == 1  # only the missing third seed


# ------------------------------------------------------- crash recovery
def test_crashed_worker_lease_expires_and_campaign_is_bit_identical(
    tiny_platform, tiny_classes, tmp_path, spool_workers
):
    """The ISSUE acceptance scenario: kill a worker mid-task; a peer reclaims
    after lease expiry and the final CampaignResult is bit-identical to the
    serial backend."""
    scenario = _crash_scenario(tiny_platform, tiny_classes)
    campaign = Campaign(name="crash-campaign", base=scenario)
    serial = run_campaign(campaign)

    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    spool = WorkSpool(spool_dir, lease_ttl_s=0.2)
    cache = FilesystemStore(cache_dir)

    # A doomed worker claims one task (the same content-addressed specs the
    # submitter will enqueue), delivers a single seed, then "crashes": no
    # ack, no further heartbeats.  Backdating the claim mtime stands in for
    # waiting out the lease.
    config = scenario.config(scenario.strategies[0])
    digest = config_digest(config)
    seeds = derive_seeds(scenario.base_seed, scenario.num_runs)
    for spec in make_task_specs(config, digest, config.strategy, seeds):
        assert spool.enqueue(spec)
    doomed = spool.claim("doomed-worker")
    assert doomed is not None
    cache.put(
        doomed.digest,
        doomed.strategy,
        doomed.seeds[0],
        simulate_waste(config, doomed.seeds[0]),
    )
    past = time.time() - 60.0
    os.utime(_lease_of(spool_dir, doomed.task_id), (past, past))

    runner = ParallelRunner(
        backend="spool",
        spool_dir=spool_dir,
        cache=FilesystemStore(cache_dir),
        spool_poll_s=0.01,
        spool_lease_ttl_s=0.2,
        spool_timeout_s=300.0,
    )
    # Workers start only once the submitter has probed the store and spooled
    # its specs: one started earlier could run a pending spec and store a
    # seed before the probe, which would then count more than one hit.
    total = len(seeds) * len(scenario.strategies)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as submitter:
        submitted = submitter.submit(run_campaign, campaign, runner)
        deadline = time.monotonic() + 60.0
        while not submitted.done():
            status = spool.status()
            if status.pending + status.claimed >= total:
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.01)
        with spool_workers(spool_dir, cache_dir, count=2, lease_ttl_s=0.2) as workers:
            spooled = submitted.result(timeout=300.0)

    assert spooled == serial  # exact dataclass equality, every summary field
    status = WorkSpool(spool_dir).status()
    assert status.drained and status.failed == 0
    # The doomed task really was re-claimed by a surviving worker.
    assert sum(worker.stats.tasks_done for worker in workers) >= len(seeds)
    # The submitter enqueued only cache misses: the one pre-delivered seed
    # was served from the cache, not re-spooled.
    assert runner.stats.cache_hits == 1
    assert runner.stats.remote_seeds == len(seeds) * len(scenario.strategies) - 1


def test_interrupted_campaign_resumes_where_it_left_off(
    tiny_platform, tiny_classes, tmp_path, spool_workers
):
    """Re-running a partially completed campaign only pays for missing seeds."""
    scenario = _crash_scenario(tiny_platform, tiny_classes)
    campaign = Campaign(name="resume-campaign", base=scenario)
    serial = run_campaign(campaign)

    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    # "Interrupted first run": one full strategy cell already in the cache.
    warm = ParallelRunner(cache=FilesystemStore(cache_dir))
    warm.map_seeds(
        scenario.config(scenario.strategies[0]),
        derive_seeds(scenario.base_seed, scenario.num_runs),
    )

    runner = ParallelRunner(
        backend="spool",
        spool_dir=spool_dir,
        cache=FilesystemStore(cache_dir),
        spool_poll_s=0.01,
        spool_timeout_s=300.0,
    )
    with spool_workers(spool_dir, cache_dir, count=2):
        resumed = run_campaign(campaign, runner)
    assert resumed == serial
    assert runner.stats.cache_hits == scenario.num_runs  # first cell replayed
    assert runner.stats.remote_seeds == scenario.num_runs  # second cell spooled


# ------------------------------------------------- specs carry data
def _smoke_cell():
    """The smoke campaign's first cell: its config and its two seeds."""
    scenario = smoke_campaign().scenarios()[0]
    return scenario.config("least-waste"), derive_seeds(scenario.base_seed, scenario.num_runs)


def test_worker_refuses_a_config_that_does_not_hash_to_its_key(tmp_path):
    """A half-horizon config under the smoke cell's key would store wrong
    values under that key; the worker records a failure naming both digests
    and simulates nothing."""
    config, seeds = _smoke_cell()
    half = dataclasses.replace(config, horizon_s=config.horizon_s / 2)
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    (spec,) = make_task_specs(half, config_digest(config), config.strategy, seeds, chunk_size=2)
    spool.enqueue(spec)

    stats = SpoolWorker(spool, cache, poll_interval_s=0.01).run(drain=True)
    assert stats.tasks_failed == 1 and stats.seeds_simulated == 0
    assert spool.status().describe() == "0 pending, 0 claimed, 0 done, 1 failed"
    failure = spool.failure(spec.task_id)
    assert config_digest(config) in failure and config_digest(half) in failure
    assert all(cache.probe(spec.digest, spec.strategy, seed) is None for seed in seeds)
    assert len(cache) == 0


def test_worker_of_another_digest_version_stores_nothing(tmp_path, monkeypatch):
    """A worker whose DIGEST_VERSION differs from the submitter's computes
    other digests, so it refuses the spec instead of stamping its values
    with its own version under the submitter's key."""
    config, seeds = _smoke_cell()
    spool = WorkSpool(tmp_path / "spool")
    cache = FilesystemStore(tmp_path / "cache")
    (spec,) = make_task_specs(config, config_digest(config), config.strategy, seeds, chunk_size=2)
    spool.enqueue(spec)

    monkeypatch.setattr("repro.exec.digest.DIGEST_VERSION", "3")
    stats = SpoolWorker(spool, cache, poll_interval_s=0.01).run(drain=True)
    assert stats.tasks_failed == 1 and stats.seeds_simulated == 0
    assert spool.status().failed == 1 and spool.status().drained
    failure = spool.failure(spec.task_id)
    assert "digest version '3'" in failure and "version '2')" in failure
    assert len(cache) == 0


def _format_1_task_id(digest: str, strategy: str, seeds) -> str:
    """The task id format-1 code gave a spec: no spec format in the hash."""
    payload = json.dumps([DIGEST_VERSION, digest, strategy, list(seeds)], separators=(",", ":"))
    return f"{digest[:8]}-{strategy}-{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def test_a_format_1_spec_left_pending_neither_runs_nor_blocks_its_cell(
    tiny_config, tmp_path, spool_workers
):
    """After an upgrade, a spec the older code left pending is quarantined
    with a message naming both formats, and the new submitter's campaign
    for the same cell completes on its first run."""
    config = tiny_config(horizon_s=0.25 * 86400.0)
    digest, seeds = config_digest(config), derive_seeds(0, 2)
    old_id = _format_1_task_id(digest, config.strategy, seeds)
    document = {  # as format-1 code wrote it; the pickled task is never read
        "format": "1", "task_id": old_id, "digest": digest, "strategy": config.strategy,
        "seeds": list(seeds), "label": config.strategy, "task": "gAROLg==",
    }
    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    spool = WorkSpool(spool_dir)
    (spool_dir / "tasks" / shard_of(old_id)).mkdir()
    (spool_dir / "tasks" / shard_of(old_id) / f"{old_id}.json").write_text(json.dumps(document))

    runner = ParallelRunner(
        backend="spool",
        spool_dir=spool_dir,
        cache=FilesystemStore(cache_dir),
        spool_poll_s=0.01,
        spool_timeout_s=120.0,
    )
    with spool_workers(spool_dir, cache_dir):
        assert runner.map_seeds(config, seeds) == ParallelRunner().map_seeds(config, seeds)
    assert "task spec format '1' does not match this code's '2'" in spool.failure(old_id)
    # The new submitter spooled one spec per seed (make_task_specs' default split).
    assert spool.status().failed == 1 and spool.status().done == len(seeds)
