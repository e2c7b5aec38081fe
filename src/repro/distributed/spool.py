"""The filesystem work spool: a broker-less, crash-tolerant task queue.

Layout version 2 (recorded in ``spool.json`` at the spool root)::

    <spool>/
      spool.json                    # {"layout": "2"} — the layout version
      tasks/<shard>/<task_id>.json  # enqueued specs, ready to claim
      claims/<batch_id>/            # one directory per claimed *batch*
        .lease.json                 #   worker id + TTL; file mtime = heartbeat
        <task_id>.json              #   the batch's still-unfinished specs
      done/<shard>/<task_id>.json   # completion markers
      failed/<shard>/<task_id>.json # failure records (spec + error traceback)

``<shard>`` is the task id's config-digest prefix
(:func:`~repro.distributed.tasks.shard_of`), so directories stay small at
fleet scale and one campaign cell's tasks sit together.  Every transition
is still a single atomic :func:`os.rename` on the same filesystem, so the
spool needs no locks and tolerates any number of concurrent submitters and
workers:

* **enqueue** writes the spec into its shard of ``tasks/``; task ids are
  content-addressed, so double submission is a no-op.
* **claim** renames an entire shard directory into ``claims/<batch_id>/`` —
  *one rename claims a whole batch of tasks* — then re-creates the shard
  for submitters and returns up to ``limit`` specs (any excess is handed
  back, so a big shard still spreads across workers).  The rename fails
  for every process but one, so exactly one worker wins each batch.  The
  claimer moves to ``failed/`` every spec it cannot decode, and every spec
  whose document names a task id other than its file name.
* **heartbeat** touches the batch's ``.lease.json``; a lease whose mtime is
  older than the TTL its claimer recorded belongs to a crashed (or wedged)
  worker and *any* participant may **reclaim** its tasks back into their
  shards — per-task renames there resolve every race to one winner.  The
  same sweep hands back *strays*: specs that landed in a live batch after
  its claimer listed it, which the lease does not name.
* **ack** renames a spec from its batch into ``done/``; **fail** records
  the error in ``failed/`` and drops the spec; **release** returns an
  interrupted worker's specs to their shards untouched.

Submitters learn of deliveries from the result cache, never from the spool
(see :mod:`repro.distributed.submit`).  A spool written by older code may
also hold per-shard event journals under ``index/``; nothing reads or
removes them.

Spools written by the flat pre-shard layout are migrated automatically on
open: entries move into their shards and orphaned claims return to the
queue, after which ``spool.json`` pins the layout.
The lease TTL must comfortably exceed the heartbeat interval (workers
heartbeat from a background thread while simulating), not the task
duration — long batches stay leased as long as their worker is alive.
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, SpoolError
from repro.distributed import fsops
from repro.distributed.tasks import TaskSpec, shard_of

__all__ = [
    "ClaimedBatch",
    "MAX_INTERVAL_S",
    "SpoolStatus",
    "WorkSpool",
    "SPOOL_LAYOUT_VERSION",
]

#: Version of the on-disk spool layout, recorded in ``spool.json`` at the
#: spool root.  Opening a spool written by a *newer* layout fails loudly;
#: a spool with no recorded layout is either fresh or flat (version 1) and
#: is migrated in place.
SPOOL_LAYOUT_VERSION = "2"

#: Longest lease TTL (and worker poll interval) accepted, in seconds: one
#: day.  ``threading.Event.wait`` and ``time.sleep`` overflow from about
#: 1e10 s up.
MAX_INTERVAL_S = 86_400.0

#: Subdirectories of a spool, created on first use.
_STATE_DIRS = ("tasks", "claims", "done", "failed")

#: Name of the per-batch lease file (mtime = heartbeat).  The leading dot
#: keeps it out of every spec listing.
_LEASE_NAME = ".lease.json"

#: Suffix of the flat layout's claim-metadata sidecars (migration only).
_META_SUFFIX = ".meta.json"


def _is_spec_name(name: str) -> bool:
    return name.endswith(".json") and not name.startswith(".")


@dataclass(frozen=True)
class SpoolStatus:
    """Counts of tasks per spool state."""

    pending: int
    claimed: int
    done: int
    failed: int

    @property
    def drained(self) -> bool:
        """True when no task is waiting or in flight (done/failed may remain)."""
        return self.pending == 0 and self.claimed == 0

    def describe(self) -> str:
        return (
            f"{self.pending} pending, {self.claimed} claimed, "
            f"{self.done} done, {self.failed} failed"
        )


@dataclass(frozen=True)
class ClaimedBatch:
    """One claimed batch: the claim's directory id and its decoded specs."""

    batch_id: str
    specs: tuple[TaskSpec, ...]


class WorkSpool:
    """One shared spool directory; see the module docstring for semantics."""

    def __init__(self, root: str | os.PathLike[str], *, lease_ttl_s: float = 60.0) -> None:
        if not 0 < lease_ttl_s <= MAX_INTERVAL_S:
            raise ConfigurationError(
                f"lease_ttl_s must be a number of seconds in (0, {MAX_INTERVAL_S:g}], "
                f"got {lease_ttl_s}"
            )
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(f"spool path {self.root} exists and is not a directory")
        self.lease_ttl_s = float(lease_ttl_s)
        for name in _STATE_DIRS:
            fsops.mkdir(self.root / name)
        #: Batches claimed through this handle: task id -> batch id.
        self._batches: dict[str, str] = {}
        self._adopt_layout()

    # ------------------------------------------------------------ layout
    def _state_dir(self, state: str) -> Path:
        return self.root / state

    def _shard_path(self, state: str, task_id: str) -> Path:
        return self.root / state / shard_of(task_id) / f"{task_id}.json"

    def _batch_dir(self, batch_id: str) -> Path:
        return self.root / "claims" / batch_id

    def _lease_path(self, batch_id: str) -> Path:
        return self._batch_dir(batch_id) / _LEASE_NAME

    def _meta_path(self) -> Path:
        return self.root / "spool.json"

    @staticmethod
    def _names(directory: Path, attempts: int = 4) -> list[str]:
        """Entry names of one directory ([] when it does not exist).

        A failed listing is retried, as :meth:`_move` retries a rename: a
        transient (or injected) ``scandir`` fault is a stall, not an error,
        and only a listing that fails ``attempts`` times in a row raises.
        """
        for _ in range(attempts - 1):
            try:
                return fsops.scandir_names(directory)
            except OSError:
                continue
        return fsops.scandir_names(directory)

    def _shards(self, state: str) -> list[str]:
        """Shard directories currently present under one state."""
        return sorted(
            name
            for name in self._names(self._state_dir(state))
            if not name.startswith(".") and (self._state_dir(state) / name).is_dir()
        )

    def _batch_ids(self) -> list[str]:
        return sorted(
            name
            for name in self._names(self._state_dir("claims"))
            if (self._state_dir("claims") / name).is_dir()
        )

    def _shard_spec_names(self, state: str, shard: str) -> list[str]:
        return sorted(
            name
            for name in self._names(self._state_dir(state) / shard)
            if _is_spec_name(name)
        )

    # ------------------------------------------------------------ versioning
    def _adopt_layout(self) -> None:
        """Read ``spool.json``; migrate flat spools; pin the layout version.

        A half-written or unparseable ``spool.json`` is treated as absent —
        migration is idempotent, so re-running it is always safe — and a
        *newer* recorded layout fails loudly instead of being misread.
        """
        try:
            meta = json.loads(self._meta_path().read_text(encoding="utf-8"))
            layout = str(meta["layout"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            layout = None
        if layout == SPOOL_LAYOUT_VERSION:
            return
        if layout is not None and layout > SPOOL_LAYOUT_VERSION:
            raise SpoolError(
                f"spool {self.root} uses layout {layout!r}, newer than this "
                f"code's {SPOOL_LAYOUT_VERSION!r}; upgrade the code or use a "
                "fresh spool directory"
            )
        self._migrate_flat_layout()
        try:
            fsops.write_text(
                self._meta_path(), json.dumps({"layout": SPOOL_LAYOUT_VERSION})
            )
        except OSError:
            pass  # advisory: the next open simply re-runs the migration

    def _migrate_flat_layout(self) -> None:
        """Move flat (layout 1) entries into their shards.

        Flat claims cannot keep their leases across the migration (their
        heartbeat files move), so they are conservatively returned to the
        queue; re-simulation is idempotent through the result cache.  Safe
        to run concurrently — every move is a rename race with one winner —
        and on a fresh or already-sharded spool it is a no-op.
        """
        for state in ("tasks", "done", "failed"):
            directory = self._state_dir(state)
            for name in self._names(directory):
                if not _is_spec_name(name) or not (directory / name).is_file():
                    continue
                task_id = name[: -len(".json")]
                self._move(directory / name, self._shard_path(state, task_id))
        claims = self._state_dir("claims")
        for name in self._names(claims):
            path = claims / name
            if not path.is_file():
                continue
            if name.endswith(_META_SUFFIX):
                fsops.unlink(path)
            elif _is_spec_name(name):
                task_id = name[: -len(".json")]
                self._move(path, self._shard_path("tasks", task_id))

    # ------------------------------------------------------------ primitives
    def _move(self, src: Path, dst: Path, attempts: int = 4) -> bool:
        """Atomic rename with destination-parent creation and fault retry.

        Returns False when the source vanished first — a peer won the race
        — which every caller treats as "not mine", never as an error.
        ``FileNotFoundError`` is ambiguous: it also fires when the freshly
        created *destination parent* was renamed away between our ``mkdir``
        and ``rename`` (a claimer taking the shard we are handing specs back
        to), so the source is probed to tell the two apart — otherwise the
        spec would sit stranded in its batch directory until lease expiry.
        """
        for _ in range(attempts):
            try:
                fsops.mkdir(dst.parent)
                fsops.rename(src, dst)
                return True
            except FileNotFoundError:
                try:
                    if not os.path.lexists(src):
                        return False  # src gone: lost the race
                except OSError:
                    pass
                continue  # dst parent vanished mid-race: re-create and retry
            except OSError:
                continue  # transient (or injected) error: retry
        return False

    def _write(self, path: Path, text: str, attempts: int = 4) -> None:
        last: OSError | None = None
        for _ in range(attempts):
            try:
                fsops.mkdir(path.parent)
                fsops.write_text(path, text)
                return
            except OSError as exc:  # parent renamed away mid-claim, or injected
                last = exc
        raise SpoolError(f"cannot write {path}: {last}") from last

    @staticmethod
    def _exists(path: Path) -> bool:
        """Existence probe that treats a transient stat failure as absent.

        Safe because no spool decision rests on existence alone: enqueue
        rewrites are idempotent (content-addressed atomic writes), claim
        and reclaim are settled by rename races, and done/failed probes are
        re-polled.  A flaky stat therefore costs a retry, never corrupts.
        """
        try:
            return fsops.exists(path)
        except OSError:
            return False

    # ------------------------------------------------------------ submitter side
    def _claimed_ids(self) -> set[str]:
        """Ids currently sitting in claim batches (O(batches) scans)."""
        claimed: set[str] = set()
        for batch_id in self._batch_ids():
            for name in self._names(self._batch_dir(batch_id)):
                if _is_spec_name(name):
                    claimed.add(name[: -len(".json")])
        return claimed

    def enqueue(self, spec: TaskSpec) -> bool:
        """Spool one task; returns False when it is already pending or claimed.

        A leftover ``done`` or ``failed`` marker for the same id is stale by
        construction — submitters only enqueue work whose results are missing
        from the cache — so it is cleared and the task queued again.
        """
        return self.enqueue_many([spec]) == 1

    def enqueue_many(self, specs: list[TaskSpec]) -> int:
        """Spool many tasks at once; returns how many were actually enqueued.

        Amortises the claimed-id scan over the whole batch, so a submitter
        enqueueing hundreds of specs costs O(batches) directory scans, not
        O(batches × specs).
        """
        claimed = self._claimed_ids() if specs else set()
        enqueued = 0
        for spec in specs:
            task_path = self._shard_path("tasks", spec.task_id)
            if self._exists(task_path) or spec.task_id in claimed:
                continue
            for stale_state in ("done", "failed"):
                try:
                    fsops.unlink(self._shard_path(stale_state, spec.task_id))
                except OSError:
                    pass  # a transient failure leaves a stale marker, no harm
            self._write(task_path, spec.encode())
            enqueued += 1
        return enqueued

    # ------------------------------------------------------------ worker side
    def claim(self, worker_id: str) -> TaskSpec | None:
        """Atomically claim one pending task (compat path over batches).

        Expired claims are reclaimed first, so a single surviving worker
        eventually drains a spool abandoned by crashed peers.  Workers that
        want the amortised one-rename-per-batch path call
        :meth:`claim_batch` directly.
        """
        self.reclaim_expired()
        batch = self.claim_batch(worker_id, limit=1)
        return batch.specs[0] if batch is not None else None

    def claim_batch(self, worker_id: str, *, limit: int | None = None) -> ClaimedBatch | None:
        """Claim up to ``limit`` tasks from one shard with a single rename.

        The whole shard directory is renamed into ``claims/<batch_id>/``
        (exactly one claimer wins), the shard is re-created for submitters,
        and any specs beyond ``limit`` are handed straight back so a hot
        shard still spreads across workers.  Corrupt spec files are moved
        to ``failed/`` instead of wedging the queue.  Returns ``None`` when
        no shard yielded a claimable task.
        """
        if limit is not None and limit <= 0:
            raise ConfigurationError("claim batch limit must be positive")
        shards = self._shards("tasks")
        if shards:  # rotate the probe order so workers spread across shards
            # (crc32, not hash(): str hashing is salted per process, and the
            # probe order must be deterministic for a given worker id)
            offset = zlib.crc32(worker_id.encode("utf-8")) % len(shards)
            shards = shards[offset:] + shards[:offset]
        for shard in shards:
            shard_dir = self._state_dir("tasks") / shard
            try:
                if not any(_is_spec_name(name) for name in self._names(shard_dir)):
                    continue
            except OSError:
                continue
            batch_id = f"{worker_id}-{uuid.uuid4().hex[:8]}"
            batch_dir = self._batch_dir(batch_id)
            if not self._move(shard_dir, batch_dir):
                continue  # another claimer won this shard; try the next
            try:
                fsops.mkdir(shard_dir)  # reopen the shard for submitters
            except OSError:
                pass  # submitters re-create shards on demand anyway
            batch = self._assemble_batch(batch_id, batch_dir, worker_id, limit)
            if batch is not None:
                return batch
        return None

    def _assemble_batch(
        self, batch_id: str, batch_dir: Path, worker_id: str, limit: int | None
    ) -> ClaimedBatch | None:
        names = sorted(name for name in self._names(batch_dir) if _is_spec_name(name))
        if limit is not None and len(names) > limit:
            for name in names[limit:]:  # hand the excess back to the shard
                task_id = name[: -len(".json")]
                self._move(batch_dir / name, self._shard_path("tasks", task_id))
            names = names[:limit]
        now = time.time()
        try:
            self._write(
                self._lease_path(batch_id),
                json.dumps(
                    {
                        "worker": worker_id,
                        "claimed_at": now,
                        "lease_ttl_s": self.lease_ttl_s,
                        "tasks": [name[: -len(".json")] for name in names],
                    }
                ),
            )
        except SpoolError:
            # Without a lease the batch would only expire via the directory
            # mtime fallback; hand everything back instead of running dark.
            for name in names:
                task_id = name[: -len(".json")]
                self._move(batch_dir / name, self._shard_path("tasks", task_id))
            self._remove_batch_dir(batch_id)
            return None
        specs: list[TaskSpec] = []
        for name in names:
            task_id = name[: -len(".json")]
            try:
                text = fsops.read_text(batch_dir / name)
            except OSError:
                # Unreadable right now (or reclaimed already): hand it back.
                self._move(batch_dir / name, self._shard_path("tasks", task_id))
                continue
            try:
                spec = TaskSpec.decode(text)
                if spec.task_id != task_id:
                    # ack and fail look a spec up by its id: a mismatch
                    # would be claimed, run and reclaimed forever.
                    raise SpoolError(f"its task_id {spec.task_id!r} is not its file name")
                specs.append(spec)
            except SpoolError as exc:
                self._quarantine(batch_id, task_id, f"corrupt spec: {exc}", worker_id)
        if not specs:
            self._remove_batch_dir(batch_id)
            return None
        for spec in specs:
            self._batches[spec.task_id] = batch_id
        return ClaimedBatch(batch_id=batch_id, specs=tuple(specs))

    def _remove_batch_dir(self, batch_id: str) -> None:
        """Drop a batch directory once its last spec left (best effort)."""
        batch_dir = self._batch_dir(batch_id)
        remaining = [name for name in self._names(batch_dir) if _is_spec_name(name)]
        if remaining:
            return
        fsops.unlink(self._lease_path(batch_id))
        try:
            fsops.rmdir(batch_dir)
        except OSError:
            pass  # a racing ack/reclaim finishes the cleanup

    def heartbeat_batch(self, batch_id: str) -> None:
        """Refresh one batch's lease (the worker's heartbeat thread); a batch
        that is gone is ignored: it was reclaimed after a stall, and the
        reclaim wins."""
        try:
            fsops.touch(self._lease_path(batch_id))
        except OSError:
            pass  # reclaimed, or a transient stall: lease expiry is the story

    def ack(self, task_id: str, *, worker_id: str = "") -> None:
        """Mark one task this handle claimed complete (its results are in the cache).

        ``ack``, ``fail`` and ``release`` act only on the batch this handle
        claimed the task into: once its lease expired and a peer claimed the
        task again, the peer's claim is not this handle's to finish.
        """
        batch_id = self._batches.get(task_id)
        done_path = self._shard_path("done", task_id)
        if batch_id is None or not self._move(
            self._batch_dir(batch_id) / f"{task_id}.json", done_path
        ):
            raise SpoolError(
                f"cannot ack task {task_id!r}: no claim on file (lease expired "
                "and the task was reclaimed?)"
            )
        self._batches.pop(task_id, None)
        if worker_id:
            try:
                payload = json.loads(done_path.read_text(encoding="utf-8"))
                payload["completed_by"] = worker_id
                payload["completed_at"] = time.time()
                fsops.write_text(done_path, json.dumps(payload))
            except (OSError, json.JSONDecodeError):
                pass  # the rename already recorded completion
        self._remove_batch_dir(batch_id)

    def fail(self, task_id: str, error: str, *, worker_id: str = "") -> None:
        """Record a task failure and drop its claim.

        The original spec is preserved inside the failure record, so the
        record is both the error report and enough to re-queue the task by
        re-submitting.  A failure reported for a claim the caller no longer
        holds (its lease expired mid-stall and a peer took the task back)
        is dropped silently: writing a record then would abort the
        submitter's batch while the peer's retry is live.
        """
        batch_id = self._batches.get(task_id)
        if batch_id is not None:
            self._quarantine(batch_id, task_id, error, worker_id)

    def _quarantine(self, batch_id: str, task_id: str, error: str, worker_id: str) -> None:
        claim_path = self._batch_dir(batch_id) / f"{task_id}.json"
        try:
            spec_text = claim_path.read_text(encoding="utf-8")
        except OSError:
            self._batches.pop(task_id, None)
            return  # reclaimed by a peer; its retry owns the outcome now
        record = {
            "task_id": task_id,
            "worker": worker_id,
            "error": error,
            "failed_at": time.time(),
            "spec": spec_text,
        }
        try:
            self._write(self._shard_path("failed", task_id), json.dumps(record))
        except SpoolError:
            return  # leave the claim; lease expiry will retry the task
        fsops.unlink(claim_path)
        self._batches.pop(task_id, None)
        self._remove_batch_dir(batch_id)

    def release(self, task_id: str) -> None:
        """Return one task this handle claimed to the queue untouched (graceful shutdown)."""
        batch_id = self._batches.pop(task_id, None)
        if batch_id is None:
            return
        self._move(
            self._batch_dir(batch_id) / f"{task_id}.json",
            self._shard_path("tasks", task_id),
        )
        self._remove_batch_dir(batch_id)

    def release_batch(self, batch: ClaimedBatch) -> None:
        """Return every unfinished spec of one batch to the queue.

        Specs already acked or failed are no longer this handle's claims,
        and one a peer took back is no longer in the batch: releasing
        either is a no-op.
        """
        for spec in batch.specs:
            self.release(spec.task_id)

    # ------------------------------------------------------------ recovery
    def reclaim_expired(self) -> list[str]:
        """Move tasks of expired claim batches back into their shards.

        Any participant (worker or submitter) may call this; the per-task
        rename races resolve to exactly one winner, so concurrent reclaim
        sweeps are safe.  A batch is judged against the TTL its *claimer*
        recorded in the lease file; a half-written or missing lease, or one
        whose TTL is not a finite positive number, falls back to this
        spool's own TTL judged on the directory mtime, so an orphaned batch
        can never outlive its worker forever and a live one is never handed
        back at once.

        A live batch may also hold strays: a peer's hand-back or an enqueue
        can rename a spec into a shard directory after a claimer renamed
        that directory into ``claims/`` and listed it.  Specs its lease does
        not list are moved back to their shards at once and returned with
        the expired ones.
        """
        reclaimed: list[str] = []
        now = time.time()
        for batch_id in self._batch_ids():
            batch_dir = self._batch_dir(batch_id)
            ttl = self.lease_ttl_s
            leased = None
            try:
                lease = json.loads(self._lease_path(batch_id).read_text(encoding="utf-8"))
                recorded = float(lease["lease_ttl_s"])
                if not 0 < recorded < math.inf:
                    raise ValueError(f"unusable lease TTL {recorded}")
                ttl = recorded
                mtime = fsops.stat(self._lease_path(batch_id)).st_mtime
                leased = lease.get("tasks")
            except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
                try:  # half-written/absent lease: judge by the directory
                    mtime = fsops.stat(batch_dir).st_mtime
                except OSError:
                    continue
            if mtime > now - ttl:
                if isinstance(leased, list):
                    reclaimed.extend(self._hand_back_strays(batch_dir, leased))
                continue
            for name in self._names(batch_dir):
                if not _is_spec_name(name):
                    continue
                task_id = name[: -len(".json")]
                if self._move(batch_dir / name, self._shard_path("tasks", task_id)):
                    reclaimed.append(task_id)
            fsops.unlink(self._lease_path(batch_id))
            try:
                fsops.rmdir(batch_dir)
            except OSError:
                pass  # a racing sweep (or a late ack) finishes the cleanup
        return reclaimed

    def _hand_back_strays(self, batch_dir: Path, leased: list) -> list[str]:
        """Move the specs of a live batch that its lease does not list back
        to their shards; returns their ids."""
        try:
            names = self._names(batch_dir)
        except OSError:
            return []  # a transient stall: the next sweep looks again
        strays: list[str] = []
        for name in names:
            task_id = name[: -len(".json")]
            if not _is_spec_name(name) or task_id in leased:
                continue
            if self._move(batch_dir / name, self._shard_path("tasks", task_id)):
                strays.append(task_id)
        return strays

    # ------------------------------------------------------------ inspection
    def has_failed(self, task_id: str) -> bool:
        """True when a failure record exists for ``task_id`` (O(1))."""
        return self._exists(self._shard_path("failed", task_id))

    def failure(self, task_id: str) -> str | None:
        """The recorded error of one failed task, or ``None``."""
        try:
            record = json.loads(
                self._shard_path("failed", task_id).read_text(encoding="utf-8")
            )
            return str(record.get("error", "unknown error"))
        except (OSError, json.JSONDecodeError):
            return None

    def idle(self) -> bool:
        """True when no task is pending or claimed (cheap drained check:
        never lists ``done``/``failed``, so polling it stays O(shards) even
        on a spool with a long completion history)."""
        for shard in self._shards("tasks"):
            if self._shard_spec_names("tasks", shard):
                return False
        for batch_id in self._batch_ids():
            for name in self._names(self._batch_dir(batch_id)):
                if _is_spec_name(name):
                    return False
        return True

    def status(self) -> SpoolStatus:
        """Task counts per state."""
        pending = sum(
            len(self._shard_spec_names("tasks", shard)) for shard in self._shards("tasks")
        )
        claimed = sum(
            1
            for batch_id in self._batch_ids()
            for name in self._names(self._batch_dir(batch_id))
            if _is_spec_name(name)
        )
        done = sum(
            len(self._shard_spec_names("done", shard)) for shard in self._shards("done")
        )
        failed = sum(
            len(self._shard_spec_names("failed", shard)) for shard in self._shards("failed")
        )
        return SpoolStatus(pending=pending, claimed=claimed, done=done, failed=failed)

    def __repr__(self) -> str:
        return f"WorkSpool(root={str(self.root)!r}, lease_ttl_s={self.lease_ttl_s}, {self.status().describe()})"
