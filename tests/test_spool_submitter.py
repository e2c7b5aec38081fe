"""The spool submitter's delivery contract (``SpoolBackend.run``).

Workers write every seed into the shared result store before they ack, so
the store alone records delivery.  These tests pin what a submitter sees
when no worker runs at all: seeds that land in the store out-of-band are
delivered, and a spool nobody drains times out with its work still queued.
The timeout counts from the last delivery, so a campaign that keeps
receiving seeds is never cut off.  The submitter's poll-cost bound sits
with the other complexity bounds in ``tests/test_spool_scale.py``.
"""

from __future__ import annotations

import threading
import time

from repro.cli import main
from repro.distributed import WorkSpool
from repro.exec import ParallelRunner, config_digest
from repro.stats.montecarlo import derive_seeds
from repro.store import FilesystemStore


def test_seeds_put_into_the_store_out_of_band_are_delivered(tiny_config, tmp_path):
    """No worker claims or acks anything: another writer puts the values
    straight into the store, and the submitter still returns them."""
    config = tiny_config(horizon_s=0.25 * 86400.0)
    seeds = derive_seeds(0, 3)
    expected = ParallelRunner().map_seeds(config, seeds)
    events = []
    runner = ParallelRunner(
        backend="spool",
        spool_dir=tmp_path / "spool",
        cache=FilesystemStore(tmp_path / "cache"),
        spool_poll_s=0.01,
        spool_timeout_s=60.0,
        progress=events.append,
    )

    def deliver() -> None:
        # Wait until the submitter has spooled its tasks, so every seed was
        # a store miss, then write the values without touching the spool.
        tasks = tmp_path / "spool" / "tasks"
        deadline = time.time() + 30.0
        while not any(tasks.glob("*/*.json")) and time.time() < deadline:
            time.sleep(0.005)
        time.sleep(0.1)
        store = FilesystemStore(tmp_path / "cache")
        for seed, value in zip(seeds, expected):
            store.put(config_digest(config), config.strategy, seed, value)

    writer = threading.Thread(target=deliver)
    writer.start()
    try:
        assert runner.map_seeds(config, seeds) == expected
    finally:
        writer.join(timeout=60.0)
    assert not writer.is_alive()
    assert runner.stats.remote_seeds == len(seeds)
    assert runner.stats.tasks_run == 0
    assert events[-1].completed == events[-1].total == len(seeds)
    assert WorkSpool(tmp_path / "spool").status().done == 0  # nothing was acked


def test_the_timeout_counts_from_the_last_delivery(tiny_config, tmp_path):
    """``spool_timeout_s`` bounds the silence between deliveries, not the
    whole wait: 20 seeds arriving 0.1 s apart take about 2 s in all, twice
    the 1 s timeout, and the submitter still returns every one of them."""
    config = tiny_config(horizon_s=0.25 * 86400.0)
    seeds = derive_seeds(0, 20)
    expected = ParallelRunner().map_seeds(config, seeds)
    events = []
    runner = ParallelRunner(
        backend="spool",
        spool_dir=tmp_path / "spool",
        cache=FilesystemStore(tmp_path / "cache"),
        spool_poll_s=0.01,
        spool_timeout_s=1.0,
        progress=events.append,
    )
    started = []

    def deliver() -> None:
        tasks = tmp_path / "spool" / "tasks"
        deadline = time.time() + 30.0
        while not any(tasks.glob("*/*.json")) and time.time() < deadline:
            time.sleep(0.005)
        started.append(time.monotonic())
        store = FilesystemStore(tmp_path / "cache")
        for seed, value in zip(seeds, expected):
            time.sleep(0.1)
            store.put(config_digest(config), config.strategy, seed, value)

    writer = threading.Thread(target=deliver)
    writer.start()
    try:
        assert runner.map_seeds(config, seeds) == expected
    finally:
        writer.join(timeout=60.0)
    assert not writer.is_alive()
    assert time.monotonic() - started[0] > 1.5  # longer than the timeout
    assert runner.stats.remote_seeds == len(seeds)
    assert events[-1].completed == events[-1].total == len(seeds)


def test_campaign_without_workers_times_out_and_keeps_its_work_queued(tmp_path, capsys):
    spool_dir = tmp_path / "spool"
    code = main(
        ["campaign", "--preset", "smoke", "--num-runs", "1", "--horizon-days", "0.25",
         "--strategies", "least-waste", "--backend", "spool", "--spool", str(spool_dir),
         "--cache-dir", str(tmp_path / "cache"), "--spool-timeout", "0.3"]
    )
    assert code == 2
    assert "timed out after 0.3s waiting for" in capsys.readouterr().err
    assert WorkSpool(spool_dir).status().pending > 0  # a later worker can take it
