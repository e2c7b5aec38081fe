"""Monte-Carlo driver.

Each experiment of the paper is repeated over many randomly drawn initial
conditions (job mixes and failure traces); :func:`monte_carlo` runs a
user-provided experiment function once per derived seed and summarises the
resulting sample.

Repetitions run through a :class:`repro.exec.ParallelRunner`, serial by
default; pass one with ``backend="process"`` to dispatch them to worker
processes.  Because the i-th derived seed depends only on the base seed and
``i``, every backend returns bit-identical per-seed values and summaries.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import AnalysisError
from repro.exec.runner import ParallelRunner
from repro.stats.summary import DistributionSummary, summarize

__all__ = ["monte_carlo", "derive_seeds", "resolve_base_seed", "DerivedSeeds"]


class DerivedSeeds(list):
    """Seed list that remembers the resolved root entropy it was derived from.

    Behaves exactly like ``list[int]`` (equality, iteration, indexing), with
    one extra attribute, :attr:`base_entropy`: the concrete root entropy the
    seeds were spawned from.  When :func:`derive_seeds` is called with
    ``base_seed=None`` the operating-system entropy is resolved *once* and
    recorded here, so even "no seed" runs are reproducible after the fact —
    ``derive_seeds(seeds.base_entropy, n)`` regenerates the same seeds — and
    their results can be cached under a stable key.
    """

    def __init__(self, seeds, base_entropy: int) -> None:
        super().__init__(seeds)
        self.base_entropy = int(base_entropy)


def resolve_base_seed(base_seed: int | None) -> int:
    """Resolve ``None`` to fresh OS entropy; pass concrete seeds through.

    Seed derivation and result caching both need a concrete root value, so
    the "no seed" case must be resolved exactly once per sample (not once
    per repetition) and recorded; see :class:`DerivedSeeds`.
    """
    if base_seed is not None:
        return int(base_seed)
    entropy = np.random.SeedSequence().entropy
    assert entropy is not None  # SeedSequence() always gathers entropy
    return int(entropy)


def derive_seeds(base_seed: int | None, num_runs: int) -> DerivedSeeds:
    """Derive ``num_runs`` independent 63-bit seeds from ``base_seed``.

    The derivation uses :class:`numpy.random.SeedSequence` spawning, so the
    i-th derived seed depends only on ``base_seed`` and ``i`` (not on how
    many runs are requested), which lets a sweep grow its sample without
    invalidating earlier runs.  ``base_seed=None`` resolves fresh entropy
    once; the returned list records it as ``.base_entropy``.
    """
    if num_runs <= 0:
        raise AnalysisError("num_runs must be positive")
    entropy = resolve_base_seed(base_seed)
    seeds = DerivedSeeds(
        (
            int(
                np.random.SeedSequence(entropy=entropy, spawn_key=(index,))
                .generate_state(1, dtype=np.uint64)[0]
                >> 1
            )
            for index in range(num_runs)
        ),
        base_entropy=entropy,
    )
    return seeds


def monte_carlo(
    experiment: Callable[[int], float],
    *,
    num_runs: int,
    base_seed: int | None = None,
    reduce: Callable[[list[float]], DistributionSummary] = summarize,
    runner: ParallelRunner | None = None,
) -> DistributionSummary:
    """Run ``experiment(seed)`` for ``num_runs`` derived seeds and summarise.

    Parameters
    ----------
    experiment:
        Callable mapping a seed to a scalar metric (e.g. the waste ratio of
        one simulation run).  Must be picklable (a module-level function or
        callable instance) when the runner dispatches to other processes.
    num_runs:
        Number of repetitions.
    base_seed:
        Root seed from which per-run seeds are derived.
    reduce:
        Reduction from the list of per-run values to a summary; defaults to
        :func:`repro.stats.summary.summarize`.
    runner:
        The :class:`repro.exec.ParallelRunner` that evaluates the seeds (its
        backend and worker count); the default is a fresh serial runner.
        An attached result cache is not consulted here: arbitrary
        experiment callables have no content digest, so caching applies to
        :meth:`~repro.exec.ParallelRunner.run_config` and the campaign
        engine built on it.
    """
    runner = runner or ParallelRunner()
    return reduce(runner.map_seeds(experiment, derive_seeds(base_seed, num_runs)))
