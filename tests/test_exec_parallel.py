"""Parallel execution subsystem (repro.exec).

The key property: dispatching Monte-Carlo repetitions to worker processes
or serving them from the on-disk cache never changes a single bit of any
result.  The equivalence tests below therefore compare full
:class:`DistributionSummary` dataclasses (exact float equality, not
``approx``) between the serial path and every other execution mode.  Every
repetition is one simulation of a configuration under one seed
(:func:`repro.exec.simulate_waste`); a quarter-day toy configuration keeps
them at a few milliseconds each.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BACKENDS,
    ParallelRunner,
    ProgressEvent,
    config_digest,
    simulate_waste,
)
from repro.scenarios.runner import run_scenarios
from repro.scenarios.spec import Scenario
from repro.stats.montecarlo import derive_seeds
from repro.stats.summary import DistributionSummary, summarize
from repro.store import FilesystemStore
from repro.units import DAY


@pytest.fixture
def quick_config(tiny_config):
    """A quarter-day toy configuration: a few milliseconds per seed."""
    return tiny_config(horizon_s=0.25 * DAY)


def _tiny_cell(tiny_platform, tiny_classes, strategy="least-waste", **overrides) -> Scenario:
    """A one-strategy scenario: one (scenario, strategy) cell of a campaign."""
    parameters = dict(
        name="tiny",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=(strategy,),
        horizon_days=0.5,
        warmup_days=0.05,
        cooldown_days=0.05,
        num_runs=3,
        base_seed=0,
    )
    parameters.update(overrides)
    return Scenario(**parameters)


def run_cell(cell: Scenario, runner: ParallelRunner | None = None) -> DistributionSummary:
    """Waste summary of the cell's only strategy, run by the campaign engine."""
    (outcome,) = run_scenarios([cell], runner)
    (summary,) = outcome.summaries.values()
    return summary


# ------------------------------------------------------------- construction
def test_runner_validates_parameters(tmp_path):
    with pytest.raises(ConfigurationError):
        ParallelRunner(backend="threads")
    with pytest.raises(ConfigurationError):
        ParallelRunner(workers=0)
    assert set(BACKENDS) == {"serial", "process", "spool"}
    # The spool backend needs both a spool directory and a shared store.
    cache = FilesystemStore(tmp_path / "cache")
    with pytest.raises(ConfigurationError):
        ParallelRunner(backend="spool", cache=cache)
    with pytest.raises(ConfigurationError):
        ParallelRunner(backend="spool", spool_dir=tmp_path / "spool")
    runner = ParallelRunner(backend="spool", spool_dir=tmp_path / "spool", cache=cache)
    assert runner.cache is cache
    with pytest.raises(TypeError):  # a store is attached, never built from a path
        ParallelRunner(cache_dir=tmp_path / "cache")
    with pytest.raises(ConfigurationError):
        ParallelRunner(spool_timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        ParallelRunner(spool_timeout_s=-5.0)
    with pytest.raises(TypeError):  # the spool enqueues a whole batch at once
        ParallelRunner(spool_max_inflight=4)
    with pytest.raises(TypeError):  # backends size their chunks from the seed count
        ParallelRunner(chunk_size=2)


@pytest.mark.parametrize("name", ["spool_poll_s", "spool_lease_ttl_s", "spool_timeout_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_runner_refuses_non_finite_spool_durations(name, value):
    # A NaN timeout never fires and a NaN lease is reclaimed at once.
    with pytest.raises(ConfigurationError, match=name):
        ParallelRunner(**{name: value})


def test_backend_registry_rejects_duplicates_and_accepts_new_backends(quick_config):
    from repro.exec import ExecutionBackend, backend_names, register_backend
    from repro.exec.runner import _BACKEND_FACTORIES

    with pytest.raises(ConfigurationError):
        register_backend("serial", lambda runner: None)
    with pytest.raises(ConfigurationError):
        register_backend("", lambda runner: None)

    class EchoBackend(ExecutionBackend):
        def run(self, batch):
            return {index: float(seed % 7) for index, seed in batch.pending}

    register_backend("echo-test", EchoBackend)
    try:
        assert "echo-test" in backend_names()
        runner = ParallelRunner(backend="echo-test")
        assert runner.map_seeds(quick_config, [3, 14]) == [3.0 % 7, 14.0 % 7]
    finally:
        del _BACKEND_FACTORIES["echo-test"]


# -------------------------------------------- serial / process equivalence
@pytest.mark.parametrize("num_runs", [1, 5, 12])
@pytest.mark.parametrize("workers", [2, 4])
def test_monte_carlo_process_backend_is_bit_identical(num_runs, workers, quick_config):
    seeds = derive_seeds(7, num_runs)
    serial = summarize(ParallelRunner().map_seeds(quick_config, seeds))
    with ParallelRunner(backend="process", workers=workers) as runner:
        parallel = summarize(runner.map_seeds(quick_config, seeds))
    assert serial == parallel  # exact dataclass equality, field by field


@pytest.mark.parametrize("chunk_size", [1, 2, 5])
def test_map_seeds_chunking_preserves_seed_order(chunk_size, quick_config):
    # Two workers get four chunks each: 8 * chunk_size seeds make chunks of
    # chunk_size seeds, one progress event per chunk.
    seeds = derive_seeds(3, 8 * chunk_size)
    expected = [simulate_waste(quick_config, seed) for seed in seeds]
    events: list[ProgressEvent] = []
    with ParallelRunner(backend="process", workers=2, progress=events.append) as runner:
        assert runner.map_seeds(quick_config, seeds) == expected
    assert sorted(e.completed for e in events) == list(range(chunk_size, len(seeds) + 1, chunk_size))


def test_run_cell_process_backend_matches_serial(tiny_platform, tiny_classes):
    cell = _tiny_cell(tiny_platform, tiny_classes, num_runs=4)
    serial = run_cell(cell)
    parallel = run_cell(cell, runner=ParallelRunner(backend="process", workers=2))
    assert serial == parallel


# ------------------------------------------------------------------ caching
def test_cache_second_run_simulates_nothing(tiny_platform, tiny_classes, tmp_path):
    cell = _tiny_cell(tiny_platform, tiny_classes, num_runs=3)
    first = ParallelRunner(cache=FilesystemStore(tmp_path))
    a = run_cell(cell, runner=first)
    assert first.stats.tasks_run == cell.num_runs
    assert first.stats.cache_hits == 0

    second = ParallelRunner(cache=FilesystemStore(tmp_path))
    b = run_cell(cell, runner=second)
    assert a == b
    assert second.stats.tasks_run == 0  # zero simulations on the second run
    assert second.stats.cache_hits == cell.num_runs


def test_cache_growing_num_runs_only_simulates_new_seeds(tiny_platform, tiny_classes, tmp_path):
    small = _tiny_cell(tiny_platform, tiny_classes, num_runs=2)
    run_cell(small, runner=ParallelRunner(cache=FilesystemStore(tmp_path)))

    grown = _tiny_cell(tiny_platform, tiny_classes, num_runs=5)
    runner = ParallelRunner(cache=FilesystemStore(tmp_path))
    summary = run_cell(grown, runner=runner)
    assert runner.stats.cache_hits == 2  # prefix stability pays off
    assert runner.stats.tasks_run == 3
    assert summary == run_cell(grown)  # identical to a fresh serial run


def test_cache_process_backend(tiny_platform, tiny_classes, tmp_path):
    cell = _tiny_cell(tiny_platform, tiny_classes, num_runs=4)
    warm = ParallelRunner(backend="process", workers=2, cache=FilesystemStore(tmp_path))
    a = run_cell(cell, runner=warm)
    cached = ParallelRunner(backend="process", workers=2, cache=FilesystemStore(tmp_path))
    b = run_cell(cell, runner=cached)
    assert a == b
    assert cached.stats.tasks_run == 0


def test_cache_distinguishes_strategies_and_configs(tiny_platform, tiny_classes, tmp_path):
    runner = ParallelRunner(cache=FilesystemStore(tmp_path))
    base = _tiny_cell(tiny_platform, tiny_classes, num_runs=2)
    other_strategy = _tiny_cell(tiny_platform, tiny_classes, num_runs=2, strategy="oblivious-fixed")
    other_horizon = _tiny_cell(tiny_platform, tiny_classes, num_runs=2, horizon_days=0.6)
    run_cell(base, runner=runner)
    run_cell(other_strategy, runner=runner)
    run_cell(other_horizon, runner=runner)
    # No cross-key collisions: each cell simulated its own repetitions.
    assert runner.stats.tasks_run == 6
    assert runner.stats.cache_hits == 0
    digests = {config_digest(c.configs()[0]) for c in (base, other_strategy, other_horizon)}
    assert len(digests) == 3


def test_config_digest_excludes_seed_and_trace(tiny_config):
    config = tiny_config()
    assert config_digest(config) == config_digest(config.with_seed(999))
    import dataclasses

    traced = dataclasses.replace(config, collect_trace=True)
    assert config_digest(config) == config_digest(traced)
    assert config_digest(config) != config_digest(
        dataclasses.replace(config, strategy="ordered-daly")
    )


def test_result_cache_treats_malformed_entries_as_misses(tmp_path):
    cache = FilesystemStore(tmp_path)
    path = cache._entry_path("e" * 64, "least-waste", 1)
    path.parent.mkdir(parents=True)
    for malformed in ("null", "{}", '{"value": "not a float"}', "{broken"):
        path.write_text(malformed)
        assert cache.get("e" * 64, "least-waste", 1) is None
    assert cache.misses == 4 and cache.hits == 0


def test_result_cache_treats_nonfinite_and_truncated_entries_as_misses(tmp_path):
    """Corruption that still parses as JSON must not escape the cache:
    ``Infinity``/``NaN`` are valid JSON extensions but never valid results,
    and a torn write can truncate mid-document or leave raw bytes."""
    cache = FilesystemStore(tmp_path)
    path = cache._entry_path("f" * 64, "least-waste", 2)
    path.parent.mkdir(parents=True)
    corruptions = [
        '{"value": Infinity}',
        '{"value": -Infinity}',
        '{"value": NaN}',
        '{"value": 0.12',  # truncated write
    ]
    for corrupt in corruptions:
        path.write_text(corrupt)
        assert cache.get("f" * 64, "least-waste", 2) is None
    path.write_bytes(b"\x00\xffgarbage")  # binary garbage
    assert cache.get("f" * 64, "least-waste", 2) is None
    assert cache.misses == len(corruptions) + 1 and cache.hits == 0
    # put() rewrites the corrupt entry in place; subsequent reads hit.
    cache.put("f" * 64, "least-waste", 2, 0.25)
    assert cache.get("f" * 64, "least-waste", 2) == 0.25


def test_runner_resimulates_and_rewrites_corrupt_entries(tiny_platform, tiny_classes, tmp_path):
    cell = _tiny_cell(tiny_platform, tiny_classes, num_runs=2)
    reference = run_cell(cell, runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    entry = sorted(tmp_path.glob("*/*/*/*.json"))[0]
    entry.write_text('{"value": NaN}')

    runner = ParallelRunner(cache=FilesystemStore(tmp_path))
    assert run_cell(cell, runner=runner) == reference
    assert runner.stats.tasks_run == 1  # only the corrupt seed re-simulated
    assert runner.stats.cache_hits == 1

    fresh = ParallelRunner(cache=FilesystemStore(tmp_path))
    assert run_cell(cell, runner=fresh) == reference
    assert fresh.stats.tasks_run == 0  # the rewrite stuck


def test_process_pool_is_reused_across_batches(quick_config):
    with ParallelRunner(backend="process", workers=2) as runner:
        runner.map_seeds(quick_config, derive_seeds(0, 4))
        backend = runner._backend_impl
        first_pool = backend._pool
        runner.map_seeds(quick_config, derive_seeds(1, 4))
        assert first_pool is not None and backend._pool is first_pool
        assert runner._backend_impl is backend  # backend object reused too
    assert runner._backend_impl is None  # context exit shuts the backend down
    assert backend._pool is None
    runner.close()  # idempotent


def test_cache_probe_is_counter_neutral(tmp_path):
    cache = FilesystemStore(tmp_path)
    cache.put("a" * 64, "least-waste", 1, 0.5)
    assert cache.probe("a" * 64, "least-waste", 1) == 0.5
    assert cache.probe("a" * 64, "least-waste", 2) is None
    assert cache.hits == 0 and cache.misses == 0  # probes left no trace
    assert cache.get("a" * 64, "least-waste", 1) == 0.5
    assert cache.hits == 1  # real lookups still count


def test_cache_stats_reports_entries_bytes_and_versions(tmp_path):
    from repro.exec import DIGEST_VERSION

    cache = FilesystemStore(tmp_path)
    assert cache.stats().entries == 0
    cache.put("a" * 64, "least-waste", 1, 0.25)
    cache.put("a" * 64, "least-waste", 2, 0.5)
    # A pre-PR-3 entry: no "version" field recorded.
    legacy = cache._entry_path("b" * 64, "ordered-daly", 3)
    legacy.parent.mkdir(parents=True)
    legacy.write_text('{"value": 0.75}')
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.total_bytes > 0
    assert stats.versions == {DIGEST_VERSION: 2, "unversioned": 1}


def test_cache_stats_dedupes_rewritten_entries_and_sidecars_by_path(tmp_path):
    """Regression: on a resumed campaign a corrupt-then-rewritten entry
    appends a *second* index-journal record for the same path; stats must
    fold records by path (latest wins) instead of counting the file twice.
    The records older versions journaled for a rewritten trace sidecar
    count for nothing."""
    import json

    cache = FilesystemStore(tmp_path)
    digest = "a" * 64
    cache.put(digest, "least-waste", 1, 0.25)
    entry = cache._entry_path(digest, "least-waste", 1)
    # Torn write corrupts the entry; the resumed campaign rewrites it.
    entry.write_text("{broken")
    cache.put(digest, "least-waste", 1, 0.25)
    # An older version wrote, tore and rewrote the cell's trace sidecar.
    sidecar = entry.with_suffix(".trace")
    sidecar.write_text("{}")
    record = {"kind": "trace", "path": sidecar.relative_to(tmp_path).as_posix(),
              "bytes": 2, "version": "2"}
    with open(tmp_path / digest[:2] / ".index.jsonl", "a") as journal:
        journal.write(2 * (json.dumps(record) + "\n"))
    stats = cache.stats()
    assert stats.entries == 1  # not 2, and no sidecar counted
    assert stats.total_bytes == entry.stat().st_size


def test_cache_gc_prunes_by_version_and_age(tmp_path):
    import os
    import time

    cache = FilesystemStore(tmp_path)
    cache.put("a" * 64, "least-waste", 1, 0.25)
    legacy = cache._entry_path("b" * 64, "ordered-daly", 3)
    legacy.parent.mkdir(parents=True)
    legacy.write_text('{"value": 0.75}')

    # No criteria: a no-op scan.
    report = cache.gc()
    assert report.scanned == 2 and report.removed == 0

    # Dry run: reports the legacy entry, removes nothing.
    report = cache.gc(digest_version="unversioned", dry_run=True)
    assert report.removed == 1 and report.dry_run
    assert len(cache) == 2

    report = cache.gc(digest_version="unversioned")
    assert report.removed == 1 and report.reclaimed_bytes > 0
    assert len(cache) == 1
    assert not legacy.parent.exists()  # empty directories are cleaned up

    # Age-based pruning: backdate the survivor, then gc with a 1h horizon.
    survivor = cache._entry_path("a" * 64, "least-waste", 1)
    past = time.time() - 7200.0
    os.utime(survivor, (past, past))
    assert cache.gc(older_than_s=3600.0).removed == 1
    assert len(cache) == 0
    # The cache still works after a full prune.
    cache.put("a" * 64, "least-waste", 1, 0.25)
    assert cache.get("a" * 64, "least-waste", 1) == 0.25


def test_result_cache_round_trip_is_exact(tmp_path):
    cache = FilesystemStore(tmp_path)
    value = 0.1234567890123456789  # exercises shortest-exact float repr
    cache.put("d" * 64, "least-waste", 12345, value)
    assert cache.get("d" * 64, "least-waste", 12345) == value
    assert cache.get("d" * 64, "least-waste", 99999) is None
    assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1
    assert len(cache) == 1


# ------------------------------------------------------------ progress hooks
def test_progress_events_cover_all_seeds(tiny_platform, tiny_classes, tmp_path):
    events: list[ProgressEvent] = []
    cell = _tiny_cell(tiny_platform, tiny_classes, num_runs=3)
    runner = ParallelRunner(cache=FilesystemStore(tmp_path), progress=events.append)
    run_cell(cell, runner=runner)
    assert [e.completed for e in events] == [1, 2, 3]
    assert all(e.total == 3 and e.cached == 0 for e in events)
    assert events[0].label == "tiny/least-waste"  # the campaign form: scenario/strategy

    cached_events: list[ProgressEvent] = []
    cached_runner = ParallelRunner(cache=FilesystemStore(tmp_path), progress=cached_events.append)
    run_cell(cell, runner=cached_runner)
    assert cached_events[-1].completed == 3
    assert cached_events[-1].cached == 3


def test_progress_events_process_backend(quick_config):
    events: list[ProgressEvent] = []
    with ParallelRunner(backend="process", workers=2, progress=events.append) as runner:
        runner.map_seeds(quick_config, derive_seeds(0, 12), label="toy")  # 6 chunks of 2
    assert sorted(e.completed for e in events) == [2, 4, 6, 8, 10, 12]
    assert events[-1].completed == 12
    assert all(e.label == "toy" for e in events)


# ------------------------------------------------- spool-backend equivalence
def test_run_config_spool_backend_is_bit_identical(tiny_config, tmp_path, spool_workers):
    config = tiny_config(horizon_s=0.25 * 86400.0)
    seeds = derive_seeds(0, 5)
    serial = ParallelRunner().map_seeds(config, seeds)
    runner = ParallelRunner(
        backend="spool",
        spool_dir=tmp_path / "spool",
        cache=FilesystemStore(tmp_path / "cache"),
        spool_poll_s=0.01,
        spool_timeout_s=120.0,
    )
    with spool_workers(tmp_path / "spool", tmp_path / "cache", count=2):
        spooled = runner.map_seeds(config, seeds)
    assert spooled == serial  # exact float equality, element by element
    assert runner.stats.tasks_run == 0  # the submitter simulated nothing
    assert runner.stats.remote_seeds == 5

    # A re-run against the now-warm cache never touches the spool.
    rerun = ParallelRunner(
        backend="spool",
        spool_dir=tmp_path / "spool",
        cache=FilesystemStore(tmp_path / "cache"),
        spool_timeout_s=1.0,
    )
    assert rerun.map_seeds(config, seeds) == serial
    assert rerun.stats.cache_hits == 5
    assert rerun.stats.remote_seeds == 0


def test_spool_backend_propagates_remote_failure(tmp_path, spool_workers, tiny_config):
    from repro.errors import SpoolError

    runner = ParallelRunner(
        backend="spool",
        spool_dir=tmp_path / "spool",
        cache=FilesystemStore(tmp_path / "cache"),
        spool_poll_s=0.01,
        spool_timeout_s=60.0,
    )
    # One event is too few for any run: the worker's simulation raises.
    doomed = tiny_config(horizon_s=0.25 * DAY, max_events=1)
    with spool_workers(tmp_path / "spool", tmp_path / "cache"):
        with pytest.raises(SpoolError, match="SimulationError: more than 1 events fired"):
            runner.map_seeds(doomed, [1, 2])


# ------------------------------------------------------------ waste task
def test_waste_ratio_task_matches_direct_simulation(tiny_config):
    from repro.simulation.simulator import Simulation

    config = tiny_config()
    seed = derive_seeds(0, 1)[0]
    value = simulate_waste(config, seed)
    assert type(value) is float
    assert value == Simulation(config.with_seed(seed)).run().waste_ratio


def test_atomic_write_text_cleans_up_on_any_exception(tmp_path, monkeypatch):
    """Regression: a non-OSError escaping mid-write (e.g. KeyboardInterrupt)
    leaked the temp file; cleanup must run for every ``BaseException``."""
    import tempfile as _tempfile

    from repro.store.filesystem import atomic_write_text

    class _ExplodingHandle:
        """Proxy whose write raises after the temp file exists on disk."""

        def __init__(self, handle, exc):
            self._handle = handle
            self._exc = exc
            self.name = handle.name

        def write(self, text):
            raise self._exc

        def __enter__(self):
            self._handle.__enter__()
            return self

        def __exit__(self, *exc_info):
            return self._handle.__exit__(*exc_info)

    for exc in (KeyboardInterrupt(), OSError("disk full"), ValueError("boom")):
        real = _tempfile.NamedTemporaryFile

        def exploding(*args, _exc=exc, **kwargs):
            return _ExplodingHandle(real(*args, **kwargs), _exc)

        monkeypatch.setattr("repro.store.filesystem.tempfile.NamedTemporaryFile", exploding)
        with pytest.raises(type(exc)):
            atomic_write_text(tmp_path / "target.json", "payload")
        monkeypatch.setattr("repro.store.filesystem.tempfile.NamedTemporaryFile", real)
        assert not (tmp_path / "target.json").exists()
        assert list(tmp_path.glob("*.tmp")) == []  # no leaked temp files
