"""Scale properties of the sharded spool and the journaled cache index.

Two kinds of guarantee live here:

* **Property tests** (Hypothesis): shard assignment is a pure function —
  identical in every process, regardless of hash randomization — and,
  whatever the operation history, every task sits in exactly the state
  directory its last transition put it in, with ``status()`` agreeing.
* **Complexity bounds**: on a synthetic 10k-entry spool/cache, the hot
  paths a fleet hammers (submitter polling, the drained check,
  ``cache stats``) cost a bounded number of filesystem operations —
  counted at the ``os.scandir``/``os.stat`` level — not O(entries).
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import SpoolStatus, TaskSpec, WorkSpool
from repro.distributed.tasks import SHARD_WIDTH, shard_of
from repro.errors import SpoolError
from repro.exec import ParallelRunner
from repro.simulation.config import SimulationConfig
from repro.stats.montecarlo import derive_seeds
from repro.store import FilesystemStore
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

_HEX = "0123456789abcdef"


# ---------------------------------------------------- shard assignment purity
@settings(max_examples=200, deadline=None)
@given(task_id=st.text(min_size=0, max_size=40))
def test_shard_of_is_total_stable_and_well_formed(task_id):
    shard = shard_of(task_id)
    assert len(shard) == SHARD_WIDTH
    assert all(char in _HEX for char in shard)
    assert shard == shard_of(task_id)  # pure: no per-call state
    head = task_id[:SHARD_WIDTH].lower()
    if len(head) == SHARD_WIDTH and all(char in _HEX for char in head):
        assert shard == head  # hex heads shard by digest prefix, verbatim


@settings(max_examples=100, deadline=None)
@given(task_id=st.text(alphabet=_HEX, min_size=SHARD_WIDTH, max_size=24))
def test_shard_of_hex_ids_is_case_insensitive(task_id):
    assert shard_of(task_id) == shard_of(task_id.upper())


def test_shard_of_is_identical_across_processes(tmp_path):
    """Every submitter/worker/sweeper process must derive the same shard for
    a task id.  Run the mapping in subprocesses with *different* hash
    randomization — a ``hash()``-based implementation would diverge."""
    ids = [
        "00f3a1b2-least-waste-0123456789abcdef",
        "ff00aa11-young-daly-fedcba9876543210",
        "not-hex-task-id",
        "",
        "zz",
        "AbCd1234-mixed-case",
    ]
    local = {task_id: shard_of(task_id) for task_id in ids}
    script = (
        "import json, sys\n"
        "from repro.distributed.tasks import shard_of\n"
        "ids = json.load(sys.stdin)\n"
        "print(json.dumps({i: shard_of(i) for i in ids}))\n"
    )
    for hashseed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(ids),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(result.stdout) == local


# ------------------------------------------ state directories == history
#: The config every spec carries; these tests never simulate it.
_CONFIG = SimulationConfig(platform=cielo_platform(), classes=apex_workload())


def _prop_spec(index: int) -> TaskSpec:
    digit = _HEX[index % len(_HEX)]
    return TaskSpec(
        config=_CONFIG, digest=digit * 64, strategy="least-waste", seeds=(index,)
    )


def _apply(spool: WorkSpool, spec: TaskSpec, action: str) -> None:
    """Drive one task through a real done/failed/requeue transition."""
    spool.enqueue(spec)  # requeues if a stale done/failed marker exists
    if action == "requeue":
        return
    held = []
    while (batch := spool.claim_batch("prop-worker", limit=100)) is not None:
        held.extend(batch.specs)
    assert any(s.task_id == spec.task_id for s in held)
    for claimed in held:
        if claimed.task_id != spec.task_id:
            spool.release(claimed.task_id)
        elif action == "done":
            spool.ack(claimed.task_id)
        else:
            spool.fail(claimed.task_id, error="injected by the property suite")


#: The state directory each property-suite action leaves its task in.
_STATE_AFTER = {"done": "done", "failed": "failed", "requeue": "tasks"}


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["done", "failed", "requeue"]), st.integers(0, 5)
        ),
        max_size=12,
    )
)
def test_every_task_sits_where_its_last_transition_put_it(ops):
    """After ANY operation history, each task id is in exactly the state
    directory its last action implies — ``done/``, ``failed/`` or
    ``tasks/`` (requeued) — and ``status()`` counts what the directories
    hold."""
    with tempfile.TemporaryDirectory() as root:
        spool = WorkSpool(root)
        specs = [_prop_spec(index) for index in range(6)]
        last: dict[str, str] = {}
        for action, index in ops:
            _apply(spool, specs[index], action)
            last[specs[index].task_id] = _STATE_AFTER[action]
        on_disk = {
            state: {path.name[: -len(".json")] for path in Path(root, state).glob("*/*.json")}
            for state in ("tasks", "done", "failed")
        }
        for spec in specs:
            holders = {state for state, ids in on_disk.items() if spec.task_id in ids}
            assert holders == ({last[spec.task_id]} if spec.task_id in last else set())
        assert spool.status() == SpoolStatus(
            pending=len(on_disk["tasks"]),
            claimed=0,
            done=len(on_disk["done"]),
            failed=len(on_disk["failed"]),
        )


# --------------------------------------------------- O(shards touched) bounds
@contextlib.contextmanager
def _counting_fs():
    """Count every os.scandir/os.stat while the block runs (pathlib's
    ``is_dir``/``exists``/``glob`` resolve these at call time, so the walk
    cost of EVERY layer — spool, cache, journal — is visible here)."""
    counts = {"scandir": 0, "stat": 0}
    real_scandir, real_stat = os.scandir, os.stat

    def counting_scandir(*args, **kwargs):
        counts["scandir"] += 1
        return real_scandir(*args, **kwargs)

    def counting_stat(*args, **kwargs):
        counts["stat"] += 1
        return real_stat(*args, **kwargs)

    os.scandir, os.stat = counting_scandir, counting_stat
    try:
        yield counts
    finally:
        os.scandir, os.stat = real_scandir, real_stat


def _synthetic_spool(root: Path, *, done: int, done_shards: int) -> WorkSpool:
    """A spool with a long completion history: ``done`` finished tasks
    spread over ``done_shards`` shards, written directly (synthetically)."""
    spool = WorkSpool(root)
    for index in range(done):
        shard = f"{index % done_shards:02x}"
        task_id = f"{shard}{index:06x}-least-waste-{index:016x}"
        shard_dir = root / "done" / shard
        shard_dir.mkdir(parents=True, exist_ok=True)
        (shard_dir / f"{task_id}.json").write_text("{}")
    return spool


def test_idle_check_ignores_the_done_history(tmp_path):
    """The submitter/worker drained check must stay O(shards) however many
    tasks have ever finished: 10k done entries, bounded scandir+stat."""
    spool = _synthetic_spool(tmp_path, done=10_000, done_shards=200)
    pending = [_prop_spec(index) for index in range(8)]
    assert spool.enqueue_many(list(pending)) == len(pending)

    with _counting_fs() as counts:
        assert not spool.idle()
    assert counts["scandir"] + counts["stat"] < 100  # vs 10_000 entries

    # And on a drained spool (claim+ack the pending work) it stays bounded.
    while (batch := spool.claim_batch("scale-worker", limit=100)) is not None:
        for spec in batch.specs:
            spool.ack(spec.task_id)
    with _counting_fs() as counts:
        assert spool.idle()
    assert counts["scandir"] + counts["stat"] < 100


def _submitter_poll_cost(root: Path, config, *, done: int) -> int:
    """scandir+stat calls of one spool-backend ``map_seeds`` that no worker
    serves, against a spool whose ``done/`` holds ``done`` markers."""
    _synthetic_spool(root / "spool", done=done, done_shards=200)
    runner = ParallelRunner(
        backend="spool",
        spool_dir=root / "spool",
        cache=FilesystemStore(root / "cache"),
        spool_poll_s=0.01,
        spool_timeout_s=0.2,
    )
    with _counting_fs() as counts:
        with pytest.raises(SpoolError, match="timed out"):
            runner.map_seeds(config, derive_seeds(0, 4))
    return counts["scandir"] + counts["stat"]


def test_submitter_poll_cost_ignores_the_done_history(tmp_path, tiny_config):
    """Every poll probes the store for the outstanding seeds and checks
    their specs' failure markers: about 20 polls cost a few hundred
    scandir+stat calls whether 100 or 10 000 tasks ever finished."""
    config = tiny_config(horizon_s=0.25 * 86400.0)
    assert _submitter_poll_cost(tmp_path / "long", config, done=10_000) < 400
    assert _submitter_poll_cost(tmp_path / "short", config, done=100) < 400


def test_cache_stats_reads_one_journal_per_shard(tmp_path):
    """``cache stats`` on a 10k-entry cache is one journal read per shard:
    the entries themselves are never stat'ed or listed."""
    shards = 64
    per_shard = 157  # 64 * 157 = 10_048 entries
    for shard_index in range(shards):
        shard = f"{shard_index:02x}"
        shard_dir = tmp_path / shard
        shard_dir.mkdir(parents=True)
        with open(shard_dir / ".index.jsonl", "w", encoding="utf-8") as journal:
            for entry in range(per_shard):
                record = {
                    "kind": "entry",
                    "path": f"{shard}/deadbeef/least-waste/{entry}.json",
                    "bytes": 64,
                    "version": "2",
                }
                journal.write(json.dumps(record) + "\n")

    cache = FilesystemStore(tmp_path)
    with _counting_fs() as counts:
        stats = cache.stats()
    assert stats.entries == shards * per_shard
    assert stats.total_bytes == shards * per_shard * 64
    # One root listing + an existence probe and read per journal — far from
    # the ~10k stats a per-entry walk would cost.
    assert counts["scandir"] <= 5
    assert counts["stat"] <= shards * 4 + 10
    assert counts["scandir"] + counts["stat"] < 1_000
