"""Spooled task specifications.

A :class:`TaskSpec` is one unit of distributed work: a
:class:`~repro.simulation.config.SimulationConfig` together with the
``(config digest, strategy)`` cache key and the concrete seeds to
simulate.  ``strategy`` is the *canonical strategy-spec string* (see
:mod:`repro.iosched.registry`) — parameterized and custom strategies cross the
spool as plain JSON text, and a worker resolves them through its own
strategy registry (custom kinds must be registered in the worker process
too, i.e. the registering module imported).  Specs are *content-addressed*:
the task id is a digest of the ``(spec format, digest version, config
digest, strategy, seeds)`` tuple, so re-submitting the same work after an
interruption maps onto the same spool file instead of duplicating it,
mirroring how the result cache deduplicates values.

On disk a spec is a small JSON document of data only: the configuration
travels as :func:`~repro.exec.digest.config_payload`, the mapping its
digest hashes.  The format is part of every task id, so a spec of an older
format left in a spool never shadows its replacement.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import SpoolError
from repro.exec.digest import DIGEST_VERSION, config_from_payload, config_payload
from repro.simulation.config import SimulationConfig

__all__ = [
    "SPOOL_FORMAT_VERSION",
    "SHARD_WIDTH",
    "SPECS_PER_CELL",
    "TaskSpec",
    "make_task_specs",
    "shard_of",
    "task_id_for",
]

#: Version of the on-disk task-spec format; bump on incompatible changes so
#: old spool entries are rejected loudly instead of misinterpreted.
SPOOL_FORMAT_VERSION = "2"

#: Seeds are 63-bit (:func:`~repro.stats.montecarlo.derive_seeds`), so every
#: store holds them, SQLite's signed 64-bit INTEGER included.
_SEED_LIMIT = 2**63

#: Hex characters of a task id that name its directory shard.
SHARD_WIDTH = 2

#: Specs :func:`make_task_specs` splits a cell into by default.  Part of
#: every default task id (the id hashes each spec's seeds), so changing it
#: re-addresses queued work.
SPECS_PER_CELL = 4

_HEX_DIGITS = frozenset("0123456789abcdef")


def shard_of(task_id: str) -> str:
    """Directory shard of one task id: its config-digest prefix.

    Task ids start with the first 8 hex characters of the config digest
    (:func:`task_id_for`), so sharding by the first :data:`SHARD_WIDTH` of
    them groups one campaign cell's tasks into one shard — which is what
    makes batched claiming grab a whole cell in a single rename.  The
    function is pure (no process state, no randomness), so every submitter,
    worker and sweeper on every machine derives the identical shard for a
    task id.  Foreign ids that do not begin with hex characters fall back
    to a hash so the mapping stays total and deterministic.
    """
    head = task_id[:SHARD_WIDTH].lower()
    if len(head) == SHARD_WIDTH and all(char in _HEX_DIGITS for char in head):
        return head
    return hashlib.sha256(task_id.encode("utf-8")).hexdigest()[:SHARD_WIDTH]


def task_id_for(digest: str, strategy: str, seeds: Sequence[int]) -> str:
    """Content address of one task: stable across submitters and re-runs.

    The id embeds a human-readable ``<digest prefix>-<strategy>`` head (handy
    when inspecting a spool directory) followed by a hash that pins the exact
    seed set, the digest-format version and the spec format.
    """
    payload = json.dumps(
        [SPOOL_FORMAT_VERSION, DIGEST_VERSION, digest, strategy, [int(seed) for seed in seeds]],
        separators=(",", ":"),
    )
    tail = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return f"{digest[:8]}-{strategy}-{tail}"


@dataclass(frozen=True)
class TaskSpec:
    """One spooled unit of work: simulate ``config`` under each of ``seeds``.

    ``digest``/``strategy`` form the cache key the worker writes results
    under; ``label`` is carried for progress/log lines only, and
    ``digest_version`` (the payload's ``__version__``) for error messages.
    """

    config: SimulationConfig
    digest: str
    strategy: str
    seeds: tuple[int, ...]
    label: str = ""
    task_id: str = field(default="", compare=False)
    digest_version: str = field(default=DIGEST_VERSION, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))
        if not self.seeds:
            raise SpoolError("a task spec needs at least one seed")
        if not self.task_id:
            object.__setattr__(
                self, "task_id", task_id_for(self.digest, self.strategy, self.seeds)
            )

    # ------------------------------------------------------------ encoding
    def encode(self) -> str:
        """Serialise to the on-disk JSON document."""
        return json.dumps(
            {
                "format": SPOOL_FORMAT_VERSION,
                "task_id": self.task_id,
                "digest": self.digest,
                "strategy": self.strategy,
                "seeds": list(self.seeds),
                "label": self.label,
                "config": config_payload(self.config),
            },
            indent=None,
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, text: str) -> "TaskSpec":
        """Parse an on-disk JSON document back into a spec.

        Raises :class:`~repro.errors.SpoolError`, and nothing else, on
        malformed documents, bad seeds or a format-version mismatch (a spool
        shared between incompatible code versions must fail loudly, not
        silently misinterpret work).
        """
        try:
            payload = json.loads(text)
            fmt = payload["format"]
            if fmt != SPOOL_FORMAT_VERSION:
                raise SpoolError(
                    f"task spec format {fmt!r} does not match this code's "
                    f"{SPOOL_FORMAT_VERSION!r}"
                )
            seeds = payload["seeds"]
            if not isinstance(seeds, list) or not all(
                type(seed) is int and 0 <= seed < _SEED_LIMIT for seed in seeds
            ):
                raise SpoolError(f"seeds must be integers in [0, 2**63), got {str(seeds):.80}")
            return cls(
                config=config_from_payload(payload["config"]),
                digest=str(payload["digest"]),
                strategy=str(payload["strategy"]),
                seeds=tuple(seeds),
                label=str(payload.get("label", "")),
                task_id=str(payload["task_id"]),
                digest_version=str(payload["config"].get("__version__")),
            )
        except SpoolError:
            raise
        except Exception as exc:  # json/key/config errors, deep nesting: one failure mode
            raise SpoolError(f"corrupt task spec: {exc}") from exc


def make_task_specs(
    config: SimulationConfig,
    digest: str,
    strategy: str,
    seeds: Sequence[int],
    *,
    label: str = "",
    chunk_size: int | None = None,
) -> list[TaskSpec]:
    """Split one cell's seeds into content-addressed task specs.

    ``chunk_size`` pins the seeds per spec; by default the cell is split
    into about :data:`SPECS_PER_CELL` specs.  They share one shard, so a
    worker with the default ``--batch-size 8`` claims all of them in one
    rename: a fleet's parallelism comes from running different cells side
    by side, not from splitting one cell.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-len(seeds) // SPECS_PER_CELL))
    return [
        TaskSpec(
            config=config,
            digest=digest,
            strategy=strategy,
            seeds=tuple(seeds[start : start + chunk_size]),
            label=label,
        )
        for start in range(0, len(seeds), chunk_size)
    ]
