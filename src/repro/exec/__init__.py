"""repro.exec — parallel experiment execution.

The paper's experiments repeat full discrete-event simulations over many
independently seeded initial conditions.  Seed derivation
(:func:`repro.stats.montecarlo.derive_seeds`) guarantees that the i-th seed
depends only on the base seed and ``i``, so repetitions are embarrassingly
parallel; this package exploits that:

* :class:`~repro.exec.runner.ParallelRunner` — simulates configurations
  over seeds (:func:`~repro.exec.runner.simulate_waste`) through a
  registry of execution backends: serially (default, bit-identical to
  the historical code path), on a
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked seed
  dispatch, or across machines via the ``"spool"`` backend
  (:mod:`repro.distributed`).  New backends plug in through
  :func:`~repro.exec.runner.register_backend`.
* :func:`~repro.exec.digest.config_digest` — the stable content digest of a
  :class:`~repro.simulation.config.SimulationConfig` that keys the result
  store (:mod:`repro.store`), so re-running a sweep with a larger
  ``num_runs`` only simulates the new seeds.

Every experiment entry point (the campaign engine, the figure and ablation
modules built on it, and the CLI via ``--workers`` / ``--cache-dir``)
accepts a runner; the default remains fully serial.
"""

from __future__ import annotations

from repro.exec.digest import DIGEST_VERSION, config_digest
from repro.exec.runner import (
    BACKENDS,
    ExecutionBackend,
    ParallelRunner,
    ProgressEvent,
    RunnerStats,
    SeedBatch,
    backend_names,
    register_backend,
    simulate_waste,
)

__all__ = [
    "BACKENDS",
    "DIGEST_VERSION",
    "ExecutionBackend",
    "ParallelRunner",
    "ProgressEvent",
    "RunnerStats",
    "SeedBatch",
    "backend_names",
    "config_digest",
    "register_backend",
    "simulate_waste",
]
