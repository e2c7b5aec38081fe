"""Module policy: which contracts bind which parts of the tree.

Every allowlist here is *named policy*, not accident: a module that may
legitimately read the wall clock (the service layer stamping job lifecycle
times, worker heartbeats, cache mtimes) is listed below with the reason,
and everything else inside a checker's target set is held to the contract.
Moving a module between these lists is a reviewed change to the project's
correctness story and belongs in the same commit as the code move.
"""

from __future__ import annotations

__all__ = [
    "DETERMINISM_TARGETS",
    "DETERMINISM_EXEMPT",
    "FSOPS_TARGETS",
    "FSOPS_CHOKEPOINTS",
    "LOCK_TARGETS",
    "DIGEST_CONFIG_MODULE",
    "DIGEST_MODULE",
]

#: Modules whose results must be a pure function of (config, seed): the
#: event engine and the simulator on it, the job model, the job and I/O
#: schedulers it drives, the platform models, the workload generator, the
#: analytical model and the digest that keys the result cache.  Wall-clock
#: reads, process-global RNG state and unordered set iteration are
#: forbidden here.
DETERMINISM_TARGETS: tuple[str, ...] = (
    "repro.sim",
    "repro.simulation",
    "repro.apps",
    "repro.iosched",
    "repro.jobsched",
    "repro.platform",
    "repro.workloads",
    "repro.core",
    "repro.exec.digest",
)

#: Layers deliberately *outside* the determinism contract, with the reason.
#: They are exempt because they never feed simulated results — not because
#: nobody looked.  (These are documentation: the checker only scans
#: DETERMINISM_TARGETS, so membership here is informative, and tested to
#: overlap no target.)
DETERMINISM_EXEMPT: dict[str, str] = {
    "repro.service": "job lifecycle timestamps are wall-clock by definition",
    "repro.distributed": "lease heartbeats and claim stamps measure real time",
    "repro.store": "store gc ages entries by real mtime",
}

#: The spool package: every filesystem side effect must route through the
#: fsops choke point so fault injection and op accounting see it.
FSOPS_TARGETS: tuple[str, ...] = ("repro.distributed",)

#: The choke point itself (and the shared atomic-write helper it delegates
#: to) are the only places raw filesystem mutation is allowed.
FSOPS_CHOKEPOINTS: tuple[str, ...] = (
    "repro.distributed.fsops",
    "repro.store.filesystem",
)

#: Modules whose classes follow the guarded-by-lock convention: a field
#: written under ``with self._lock:`` anywhere in a class is lock-guarded
#: everywhere (except ``__init__``/``__post_init__``, which run before the
#: object is shared).
LOCK_TARGETS: tuple[str, ...] = (
    "repro.service",
    "repro.store.sqlite",
)

#: Where the digest-relevant configuration fields are declared, and where
#: the digest (version + exclusion set) is computed.
DIGEST_CONFIG_MODULE = "repro.simulation.config"
DIGEST_MODULE = "repro.exec.digest"
