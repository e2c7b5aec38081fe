"""Monte-Carlo seeds.

Each experiment of the paper is repeated over many randomly drawn initial
conditions (job mixes and failure traces).  :func:`derive_seeds` turns one
base seed into the per-repetition seeds; the i-th depends only on the base
seed and ``i``, so repetitions can run in any order, on any backend of
:class:`repro.exec.ParallelRunner`, and a sample can grow without changing
the seeds it already has.

The derivation is numpy's ``SeedSequence`` spawning, written out in pure
Python so that replaying a stored campaign never loads numpy:
:func:`derive_seed` returns ``SeedSequence(base_seed, spawn_key=(index,))
.generate_state(1, np.uint64)[0] >> 1`` bit for bit (it reproduces
``mix_entropy`` and ``generate_state`` of ``numpy/random/bit_generator.pyx``
in 32-bit arithmetic), and ``tests/test_stats_oracles.py`` holds it to
numpy.
"""

from __future__ import annotations

from repro.errors import AnalysisError

__all__ = ["derive_seed", "derive_seeds", "resolve_base_seed", "DerivedSeeds"]

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


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
    # numpy gathers the OS entropy, as it always has: only a seedless sample
    # pays for the import.
    import numpy as np

    entropy = np.random.SeedSequence().entropy
    assert entropy is not None  # SeedSequence() always gathers entropy
    return int(entropy)


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (``[0]`` for 0)."""
    value = int(value)
    if value < 0:
        raise AnalysisError(f"seeds derive from non-negative integers, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def derive_seed(base_seed: int, index: int) -> int:
    """The ``index``-th 63-bit seed derived from a concrete ``base_seed``."""
    entropy = _words(base_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + _words(index)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for value in pool[:2]:
        value ^= hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return (out[0] | out[1] << 32) >> 1


def derive_seeds(base_seed: int | None, num_runs: int) -> DerivedSeeds:
    """Derive ``num_runs`` independent 63-bit seeds from ``base_seed``.

    The i-th derived seed is :func:`derive_seed` of ``(base_seed, i)``: it
    depends only on ``base_seed`` and ``i`` (not on how many runs are
    requested), which lets a sweep grow its sample without invalidating
    earlier runs.  ``base_seed=None`` resolves fresh entropy once; the
    returned list records it as ``.base_entropy``.
    """
    if num_runs <= 0:
        raise AnalysisError("num_runs must be positive")
    entropy = resolve_base_seed(base_seed)
    return DerivedSeeds(
        (derive_seed(entropy, index) for index in range(num_runs)), base_entropy=entropy
    )
