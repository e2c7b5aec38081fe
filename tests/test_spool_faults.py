"""Fault-injection tests of the sharded work spool.

Every filesystem side effect of the spool goes through
:mod:`repro.distributed.fsops`, so these tests can fail or delay chosen
operations at chosen points and prove the spool's two load-bearing
contracts hold under filesystem misbehaviour:

* a claim is never granted to two workers, even when renames fail
  mid-claim and are retried;
* half-written advisory state (``spool.json``, lease files, and the result
  cache's index journal lines the workers append to) is treated as
  *absent* — it degrades performance, never correctness.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.distributed import TaskSpec, WorkSpool, fsops
from repro.distributed.spool import SPOOL_LAYOUT_VERSION, SpoolStatus
from repro.distributed.tasks import shard_of
from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig
from repro.store import FilesystemStore
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

#: The config every spec carries; these tests never simulate it.
_CONFIG = SimulationConfig(platform=cielo_platform(), classes=apex_workload())


def _spec(seed: int, digest_char: str = "a") -> TaskSpec:
    return TaskSpec(
        config=_CONFIG, digest=digest_char * 64, strategy="least-waste", seeds=(seed,)
    )


# ------------------------------------------------------- no double grants
def test_claims_never_double_granted_under_rename_faults(tmp_path, fs_faults):
    """Four claimers hammering a faulty filesystem must still partition the
    queue: every task claimed exactly once, none lost, none duplicated."""
    submit = WorkSpool(tmp_path)
    specs = [
        _spec(seed, digest_char) for seed in range(5) for digest_char in "abcd"
    ]  # four shards, five tasks each
    assert submit.enqueue_many(list(specs)) == len(specs)

    fs_faults(rate=0.15, ops={"rename"}, seed=1234)

    claimed: list[list[str]] = [[] for _ in range(4)]
    spools = [WorkSpool(tmp_path) for _ in range(4)]

    def drain(worker: int) -> None:
        misses = 0
        while misses < 25:  # injected faults make transient "nothing" normal
            batch = spools[worker].claim_batch(f"w{worker}", limit=3)
            if batch is None:
                misses += 1
                time.sleep(0.001)
                continue
            misses = 0
            for spec in batch.specs:
                claimed[worker].append(spec.task_id)
                spools[worker].ack(spec.task_id, worker_id=f"w{worker}")

    threads = [threading.Thread(target=drain, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    all_claimed = [task_id for per_worker in claimed for task_id in per_worker]
    assert sorted(all_claimed) == sorted(spec.task_id for spec in specs)
    assert len(set(all_claimed)) == len(specs)  # never double-granted
    fs_faults(None)
    status = WorkSpool(tmp_path).status()
    assert status.drained and status.done == len(specs)


def test_a_failed_listing_is_retried_not_raised(tmp_path, fs_faults):
    """Every other directory listing fails.  Workers and submitters list on
    every poll, so a failed listing must be a stall that the spool retries,
    never an ``OSError`` that kills the process."""
    calls = itertools.count()

    def every_other_scandir(op: str, path: str) -> None:
        if op == "scandir" and next(calls) % 2 == 0:
            raise OSError(errno.EIO, f"injected fault: {op} {path}")

    spool = WorkSpool(tmp_path, lease_ttl_s=60.0)
    specs = [_spec(seed, digest_char) for seed in range(3) for digest_char in "ab"]
    fs_faults(every_other_scandir)
    assert spool.enqueue_many(specs) == len(specs)
    acked = []
    for _ in range(10):
        spool.reclaim_expired()
        batch = spool.claim_batch("w1", limit=2)
        if batch is None:
            break
        for spec in batch.specs:
            spool.ack(spec.task_id, worker_id="w1")
            acked.append(spec.task_id)
    assert spool.idle()
    assert spool.status() == SpoolStatus(pending=0, claimed=0, done=len(specs), failed=0)
    assert next(calls) > 2 * len(specs)  # the hook saw many listings
    fs_faults(None)
    assert sorted(acked) == sorted(spec.task_id for spec in specs)


def test_injected_faults_are_counted_and_disarmed(tmp_path, fs_faults):
    injector = fs_faults(rate=1.0, ops={"stat"}, seed=0)
    spool = WorkSpool(tmp_path)
    spec = _spec(1)
    spool.enqueue(spec)  # exists() fails injected -> treated as "not queued"
    assert injector.injected > 0
    fs_faults(None)
    assert spool.status().pending == 1  # the write itself was untouched


# ------------------------------------------- half-written state is absent
def _cache_journal_line(seed: int) -> str:
    """One entry record as the result cache appends it to its shard index."""
    record = {
        "kind": "entry",
        "path": f"ab/{'ab' * 32}/least-waste/{seed}.json",
        "bytes": 64,
        "version": "2",
    }
    return json.dumps(record, separators=(",", ":"))


def test_torn_journal_line_is_invisible_until_completed(tmp_path):
    """``cache stats`` reads the shard index journals: a line whose writer
    has not finished its append yet counts only once its newline lands."""
    journal = tmp_path / "ab" / ".index.jsonl"
    journal.parent.mkdir()
    journal.write_text(_cache_journal_line(1) + "\n" + _cache_journal_line(2))  # torn

    cache = FilesystemStore(tmp_path)
    assert cache.stats().entries == 1  # a torn append is absent, not an error

    with open(journal, "a", encoding="utf-8") as handle:
        handle.write("\n")  # the writer finishes its line
    assert cache.stats().entries == 2


def test_garbage_journal_lines_are_skipped(tmp_path):
    journal = tmp_path / "ab" / ".index.jsonl"
    journal.parent.mkdir()
    journal.write_bytes(
        b'{broken json\n[1, 2, 3]\n\xff\xfe not utf-8\n'
        + _cache_journal_line(3).encode("utf-8")
        + b"\n"
    )
    stats = FilesystemStore(tmp_path).stats()
    assert stats.entries == 1 and stats.total_bytes == 64


def test_half_written_spool_meta_is_treated_as_absent(tmp_path):
    """A crash mid-write of ``spool.json`` must not wedge the spool: the
    half-written file reads as absent and the (idempotent) migration simply
    re-runs, then re-pins the layout."""
    first = WorkSpool(tmp_path)
    spec = _spec(5)
    first.enqueue(spec)
    (tmp_path / "spool.json").write_text('{"lay')  # torn write

    reopened = WorkSpool(tmp_path)
    assert reopened.status().pending == 1
    meta = json.loads((tmp_path / "spool.json").read_text())
    assert meta["layout"] == SPOOL_LAYOUT_VERSION


def test_half_written_lease_falls_back_to_directory_mtime(tmp_path):
    """A torn lease file carries no TTL; the sweep must judge the batch by
    its directory mtime under the sweeper's own TTL instead of trusting
    (or crashing on) the partial JSON."""
    spool = WorkSpool(tmp_path, lease_ttl_s=0.05)
    spec = _spec(6)
    spool.enqueue(spec)
    batch = spool.claim_batch("doomed", limit=1)
    assert batch is not None
    batch_dir = tmp_path / "claims" / batch.batch_id
    (batch_dir / ".lease.json").write_text('{"worker": "doomed", "lease_ttl')
    past = time.time() - 60.0
    os.utime(batch_dir, (past, past))
    os.utime(batch_dir / ".lease.json", (past, past))
    assert spool.reclaim_expired() == [spec.task_id]
    assert spool.status().pending == 1 and spool.status().claimed == 0


def test_flat_spool_is_migrated_on_open(tmp_path):
    """A layout-1 (flat) spool auto-migrates: queued tasks move into their
    shards, done/failed markers keep their meaning and orphaned flat claims
    return to the queue."""
    for state in ("tasks", "claims", "done", "failed"):
        (tmp_path / state).mkdir(parents=True)
    queued, claimed, finished = _spec(1), _spec(2), _spec(3)
    (tmp_path / "tasks" / f"{queued.task_id}.json").write_text(queued.encode())
    (tmp_path / "claims" / f"{claimed.task_id}.json").write_text(claimed.encode())
    (tmp_path / "claims" / f"{claimed.task_id}.meta.json").write_text(
        '{"worker": "w0", "lease_ttl_s": 60.0}'
    )
    (tmp_path / "done" / f"{finished.task_id}.json").write_text(finished.encode())

    spool = WorkSpool(tmp_path)
    status = spool.status()
    assert status.pending == 2  # the queued task plus the re-queued claim
    assert status.claimed == 0 and status.done == 1
    assert (tmp_path / "done" / shard_of(finished.task_id) / f"{finished.task_id}.json").exists()
    assert json.loads((tmp_path / "spool.json").read_text())["layout"] == SPOOL_LAYOUT_VERSION

    # Re-opening (or a concurrent second migration) is a no-op.
    again = WorkSpool(tmp_path)
    assert again.status() == status
    # The migrated spool is fully operational.
    drained = []
    while (spec := again.claim("w1")) is not None:
        drained.append(spec.task_id)
        again.ack(spec.task_id)
    assert sorted(drained) == sorted([queued.task_id, claimed.task_id])


def test_spool_with_event_journals_from_older_code_drains_and_keeps_them(tmp_path):
    """Older code also appended ``done``/``failed``/``requeue`` events to
    ``index/<shard>.jsonl``.  Such a layout-2 spool reopens with the same
    status, drains normally, and its journals are neither read nor
    touched."""
    spool = WorkSpool(tmp_path)
    finished, broken = _spec(1), _spec(2)
    spool.enqueue_many([finished, broken])
    batch = spool.claim_batch("old-worker")
    assert batch is not None and len(batch.specs) == 2
    spool.ack(finished.task_id, worker_id="old-worker")
    spool.fail(broken.task_id, "boom", worker_id="old-worker")
    queued = [_spec(3), _spec(4, "b")]
    spool.enqueue_many(queued)

    index = tmp_path / "index"
    index.mkdir()
    for shard, events in {
        "aa": [("done", finished.task_id), ("failed", broken.task_id), ("requeue", "gone")],
        "bb": [("done", queued[1].task_id)],  # a stale event: not done at all
    }.items():
        lines = [json.dumps({"op": op, "id": task_id}, separators=(",", ":")) for op, task_id in events]
        (index / f"{shard}.jsonl").write_text("\n".join(lines) + "\n" + '{"op": "do')
    journals = {path.name: path.read_bytes() for path in index.iterdir()}
    before = spool.status()

    reopened = WorkSpool(tmp_path)
    assert reopened.status() == before
    drained = []
    while (batch := reopened.claim_batch("new-worker")) is not None:
        for spec in batch.specs:
            reopened.ack(spec.task_id, worker_id="new-worker")
            drained.append(spec.task_id)
    assert sorted(drained) == sorted(spec.task_id for spec in queued)
    assert reopened.status() == SpoolStatus(pending=0, claimed=0, done=3, failed=1)
    assert {path.name: path.read_bytes() for path in index.iterdir()} == journals


def test_enqueue_retries_through_transient_write_faults(tmp_path, fs_faults):
    """A write that fails once (shard dir renamed away mid-claim, transient
    EIO) is retried with its parent re-created; only persistent failure
    surfaces as an error."""
    spool = WorkSpool(tmp_path)
    failures = iter([True, True, False])  # fail twice, then succeed

    def flaky_writes(op: str, path: str) -> None:
        if op == "write" and path.endswith(".json") and next(failures, False):
            raise OSError(f"injected: {op} {path}")

    fs_faults(flaky_writes)
    spec = _spec(7)
    assert spool.enqueue(spec) is True
    fs_faults(None)
    assert spool.status().pending == 1


# ------------------------------------------------------ fault-drill knobs
_FAULT_VARS = (
    "REPRO_SPOOL_FAULT_RATE",
    "REPRO_SPOOL_FAULT_DELAY_S",
    "REPRO_SPOOL_FAULT_OPS",
    "REPRO_SPOOL_FAULT_SEED",
)
_OP_NAMES = ("rename", "stat", "utime", "scandir", "mkdir", "rmdir", "unlink", "read", "write")

#: Any value an environment variable can hold (no NUL, no lone surrogate),
#: weighted towards numbers (NaN and ±inf included) and op lists.
_ENV_VALUES = st.one_of(
    st.none(),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12),
    st.floats().map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.lists(st.sampled_from(_OP_NAMES + ("append", " ", "")), max_size=4).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(values=st.fixed_dictionaries({name: _ENV_VALUES for name in _FAULT_VARS}))
def test_fault_knobs_arm_a_sane_injector_or_fail_loudly(values):
    saved = {name: os.environ.get(name) for name in _FAULT_VARS}
    previous = fsops.install_fault_hook(None)
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        try:
            fsops._arm_from_env()
        except ConfigurationError as exc:
            assert any(str(exc).startswith(f"{name}=") for name in _FAULT_VARS)
            return
        hook = fsops.fault_hook()
        if not (values["REPRO_SPOOL_FAULT_RATE"] or values["REPRO_SPOOL_FAULT_DELAY_S"]):
            assert hook is None  # unset or empty: nothing armed, as before
            return
        assert isinstance(hook, fsops.FaultInjector)
        assert math.isfinite(hook.rate) and 0.0 <= hook.rate <= 1.0
        assert math.isfinite(hook.delay_s) and hook.delay_s >= 0.0
        assert hook.ops and hook.ops <= set(_OP_NAMES)
        assert hook.seed is None or isinstance(hook.seed, int)
    finally:
        fsops.install_fault_hook(previous)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def test_a_malformed_fault_knob_stops_the_worker_cli_with_exit_2(tmp_path):
    """The knobs are read when a command first loads the spool, so a typo'd
    drill ends the CLI with a one-line error instead of running unarmed."""
    WorkSpool(tmp_path / "spool")  # --status finds a spool: only the knob can fail
    env = {key: value for key, value in os.environ.items() if key not in _FAULT_VARS}
    env["REPRO_SPOOL_FAULT_RATE"] = "abc"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "worker", "--spool", str(tmp_path / "spool"), "--status"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: REPRO_SPOOL_FAULT_RATE='abc' must be a number in [0, 1]"
    ]
