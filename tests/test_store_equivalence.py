"""Store-choice invisibility: campaigns cannot tell the backends apart.

The acceptance bar of the PR: the same campaign (same seeds) executed
through a filesystem store and through a SQLite store produces repr-
identical ``CampaignResult`` values — and therefore byte-identical CSV
exports — and concurrent writers (threads sharing one store, plus a spool
worker delivering into it) never corrupt or drop entries.
"""

from __future__ import annotations

import threading

import pytest

from repro.exec.runner import ParallelRunner
from repro.scenarios.campaign import Axis, Campaign
from repro.scenarios.report import campaign_to_csv
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import Scenario
from repro.store import open_store


@pytest.fixture
def matrix(tiny_platform, tiny_classes) -> Campaign:
    """A 2x2 (bandwidth x MTBF) matrix on the toy platform; 16 tiny sims."""
    base = Scenario(
        name="toy",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("ordered-daly", "least-waste"),
        num_runs=2,
        horizon_days=0.5,
        warmup_days=0.05,
        cooldown_days=0.05,
    )
    return Campaign(
        name="toy-matrix",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [0.5, 2.0]),
            Axis.from_values("mtbf", "node_mtbf_years", [0.05, 0.5]),
        ),
    )


def _run_through(kind: str, path, campaign: Campaign):
    store = open_store(kind, path)
    runner = ParallelRunner(cache=store)
    try:
        result = run_campaign(campaign, runner)
    finally:
        runner.close()
    return store, result, runner.stats


# --------------------------------------------------------------- bit-identity
def test_campaign_repr_identical_through_both_stores(tmp_path, matrix):
    fs, fs_result, fs_stats = _run_through("filesystem", tmp_path / "fs", matrix)
    sq, sq_result, sq_stats = _run_through("sqlite", tmp_path / "db.sqlite", matrix)
    assert fs_stats.tasks_run == sq_stats.tasks_run == 16

    # repr-exact floats: every summary statistic matches to the last bit.
    for fs_outcome, sq_outcome in zip(fs_result.outcomes, sq_result.outcomes):
        assert fs_outcome.scenario.name == sq_outcome.scenario.name
        assert set(fs_outcome.summaries) == set(sq_outcome.summaries)
        for strategy, fs_summary in fs_outcome.summaries.items():
            assert repr(fs_summary) == repr(sq_outcome.summaries[strategy])
    assert campaign_to_csv(fs_result) == campaign_to_csv(sq_result)

    # Both stores now hold the same (digest, strategy, seed) -> value map.
    fs_records = {(r.digest, r.strategy, r.seed): r.body for r in fs.iter_raw_entries()}
    sq_records = {(r.digest, r.strategy, r.seed): r.body for r in sq.iter_raw_entries()}
    assert fs_records == sq_records and len(fs_records) == 16
    fs.close()
    sq.close()


def test_rerun_through_sqlite_is_all_cache_hits(tmp_path, matrix):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    first = ParallelRunner(cache=store)
    result_one = run_campaign(matrix, first)
    assert first.stats.tasks_run == 16
    second = ParallelRunner(cache=store)
    result_two = run_campaign(matrix, second)
    assert second.stats.tasks_run == 0  # fully warm: zero new simulations
    assert second.stats.cache_hits == 16
    for one, two in zip(result_one.outcomes, result_two.outcomes):
        for strategy, summary in one.summaries.items():
            assert repr(summary) == repr(two.summaries[strategy])
    first.close()
    second.close()
    store.close()


# ---------------------------------------------------------- concurrent writers
def test_threaded_writers_never_drop_or_corrupt_entries(tmp_path):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    digests = [c * 64 for c in "abcd"]
    errors: list[Exception] = []

    def hammer(digest: str) -> None:
        try:
            for seed in range(50):
                store.put(digest, "least-waste", seed, seed / 7.0)
            for seed in range(50):
                assert store.probe(digest, "least-waste", seed) == seed / 7.0
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(d,)) for d in digests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(store) == 200
    stats = store.stats()
    assert stats.entries == 200 and "corrupt" not in stats.versions
    store.close()


def test_spool_worker_delivers_into_a_sqlite_store(tmp_path, tiny_config):
    from repro.distributed import SpoolWorker, WorkSpool, make_task_specs
    from repro.exec import config_digest, simulate_waste
    from repro.stats.montecarlo import derive_seeds

    store = open_store("sqlite", tmp_path / "db.sqlite")
    spool = WorkSpool(tmp_path / "spool")
    config = tiny_config(horizon_s=0.25 * 86400.0)
    digest = config_digest(config)
    seeds = derive_seeds(0, 4)
    for spec in make_task_specs(config, digest, config.strategy, seeds):
        spool.enqueue(spec)

    # The worker drains while submitter-side threads are writing other
    # digests into the same store — the WAL keeps both safe.
    writer_digest = "f" * 64
    writer = threading.Thread(
        target=lambda: [
            store.put(writer_digest, "s", seed, float(seed)) for seed in range(40)
        ]
    )
    writer.start()
    stats = SpoolWorker(spool, store, worker_id="w1", poll_interval_s=0.01).run(
        drain=True
    )
    writer.join()

    assert stats.tasks_done == 4 and stats.seeds_simulated == 4
    assert spool.status().drained
    for seed in seeds:
        assert store.probe(digest, config.strategy, seed) is not None
    assert len(store) == 44  # 4 delivered + 40 threaded, none lost

    # And the delivered values are bit-identical to a serial, storeless run.
    for seed in seeds:
        expected = simulate_waste(config, seed)
        assert repr(store.probe(digest, config.strategy, seed)) == repr(expected)
    store.close()
